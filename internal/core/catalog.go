package core

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
)

// Clone records that a new snapshot line was created from version Base of
// some parent line.
type Clone struct {
	Line uint64 // the clone's line ID
	Base uint64 // the parent-line version (global CP number) it was cloned from
}

// MemCatalog is the engine's snapshot topology — which snapshot versions of
// each line still exist, which lines are live, and how lines were cloned
// from one another — together with the management operations a file system
// performs on it: taking and deleting snapshots, creating writable clones,
// and deleting lines. It maintains the paper's zombie list: deleting a
// snapshot that has clones keeps its version pinned until no descendants
// remain. MemCatalog is safe for concurrent use.
type MemCatalog struct {
	mu    sync.RWMutex
	lines map[uint64]*lineInfo

	// gen counts mutations: whoever persists the catalog (the engine, in its
	// manifest) re-serializes it only when gen has moved.
	gen uint64

	// reach caches OldestReachable (recomputing it scans every line's
	// snapshot and zombie sets); any mutation invalidates it.
	reachValid bool
	reachOK    bool
	reach      uint64
}

// changed records a mutation. Callers hold mu exclusively.
func (c *MemCatalog) changed() {
	c.gen++
	c.reachValid = false
}

type lineInfo struct {
	ID        uint64
	Live      bool
	Parent    uint64
	Base      uint64
	HasParent bool
	Snapshots map[uint64]bool // retained snapshot versions
	Zombies   map[uint64]bool // deleted-but-cloned versions
	Clones    map[uint64]uint64
}

// NewMemCatalog returns a catalog with a single live line 0 (the volume's
// original line).
func NewMemCatalog() *MemCatalog {
	c := &MemCatalog{lines: make(map[uint64]*lineInfo)}
	c.lines[0] = newLineInfo(0)
	return c
}

func newLineInfo(id uint64) *lineInfo {
	return &lineInfo{
		ID:        id,
		Live:      true,
		Snapshots: make(map[uint64]bool),
		Zombies:   make(map[uint64]bool),
		Clones:    make(map[uint64]uint64),
	}
}

// CreateSnapshot retains version v of line (typically the CP at which the
// snapshot was taken).
func (c *MemCatalog) CreateSnapshot(line, v uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	li, ok := c.lines[line]
	if !ok {
		return fmt.Errorf("core: snapshot on unknown line %d", line)
	}
	li.Snapshots[v] = true
	c.changed()
	return nil
}

// DeleteSnapshot removes version v of line. If the snapshot has clones, its
// version moves to the zombie list so that clone inheritance keeps working
// until the clones disappear.
func (c *MemCatalog) DeleteSnapshot(line, v uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	li, ok := c.lines[line]
	if !ok || !li.Snapshots[v] {
		return fmt.Errorf("core: delete of unknown snapshot (%d, %d)", line, v)
	}
	delete(li.Snapshots, v)
	c.changed()
	for _, base := range li.Clones {
		if base == v {
			li.Zombies[v] = true
			break
		}
	}
	return nil
}

// CreateClone starts writable line newLine as a copy of version base of
// parent. Base must be a retained or zombie snapshot of parent.
func (c *MemCatalog) CreateClone(newLine, parent, base uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	pl, ok := c.lines[parent]
	if !ok {
		return fmt.Errorf("core: clone of unknown line %d", parent)
	}
	if !pl.Snapshots[base] && !pl.Zombies[base] {
		return fmt.Errorf("core: clone of non-snapshot version (%d, %d)", parent, base)
	}
	if _, exists := c.lines[newLine]; exists {
		return fmt.Errorf("core: line %d already exists", newLine)
	}
	li := newLineInfo(newLine)
	li.Parent, li.Base, li.HasParent = parent, base, true
	c.lines[newLine] = li
	pl.Clones[newLine] = base
	c.changed()
	return nil
}

// DeleteLine marks the line's live file system as destroyed. Its retained
// snapshots (if any) stay queryable until deleted individually.
func (c *MemCatalog) DeleteLine(line uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	li, ok := c.lines[line]
	if !ok {
		return fmt.Errorf("core: delete of unknown line %d", line)
	}
	li.Live = false
	c.changed()
	return nil
}

// ReapZombies drops clone registrations whose clone lines are no longer
// needed, and zombie versions with no remaining clones — the paper's
// periodic zombie examination. It returns the number of zombie versions
// released. A pass that finds nothing to drop leaves the catalog, and its
// generation, as they were.
func (c *MemCatalog) ReapZombies() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	released := 0
	for _, li := range c.lines {
		for cloneLine, base := range li.Clones {
			cl, ok := c.lines[cloneLine]
			if ok && c.neededLocked(cl, make(map[uint64]bool)) {
				continue
			}
			delete(li.Clones, cloneLine)
			c.changed()
			if ok && !cl.Live && len(cl.Snapshots) == 0 && len(cl.Clones) == 0 {
				delete(c.lines, cloneLine)
			}
			// If no other clone pins this base version and it is a zombie,
			// release it.
			stillPinned := false
			for _, b := range li.Clones {
				if b == base {
					stillPinned = true
					break
				}
			}
			if !stillPinned && li.Zombies[base] {
				delete(li.Zombies, base)
				released++
			}
		}
	}
	return released
}

// neededLocked reports whether a line still matters: it is live, has
// retained snapshots, or has clones that are themselves needed.
func (c *MemCatalog) neededLocked(li *lineInfo, visiting map[uint64]bool) bool {
	if li.Live || len(li.Snapshots) > 0 {
		return true
	}
	if visiting[li.ID] {
		return false
	}
	visiting[li.ID] = true
	for cloneLine := range li.Clones {
		if cl, ok := c.lines[cloneLine]; ok && c.neededLocked(cl, visiting) {
			return true
		}
	}
	return false
}

// SnapshotsIn returns the retained (non-deleted) snapshot versions v of line
// with from <= v < to, in ascending order.
func (c *MemCatalog) SnapshotsIn(line, from, to uint64) []uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	li, ok := c.lines[line]
	if !ok {
		return nil
	}
	var out []uint64
	for v := range li.Snapshots {
		if from <= v && v < to {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IsLive reports whether the line's writable file system still exists.
func (c *MemCatalog) IsLive(line uint64) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	li, ok := c.lines[line]
	return ok && li.Live
}

// Clones returns the clones created from this line that are still needed
// (live, or carrying snapshots, or transitively cloned into needed lines).
// Query expansion follows these edges.
func (c *MemCatalog) Clones(line uint64) []Clone {
	c.mu.RLock()
	defer c.mu.RUnlock()
	li, ok := c.lines[line]
	if !ok {
		return nil
	}
	var out []Clone
	for cloneLine, base := range li.Clones {
		cl, ok := c.lines[cloneLine]
		if !ok || !c.neededLocked(cl, make(map[uint64]bool)) {
			continue
		}
		out = append(out, Clone{Line: cloneLine, Base: base})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Line < out[j].Line })
	return out
}

// PinnedIn reports whether any version v of line with from <= v < to must
// be preserved for inheritance even though it may have been deleted:
// clone-base versions of needed clones, including zombie snapshots (Section
// 4.2.2).
func (c *MemCatalog) PinnedIn(line, from, to uint64) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	li, ok := c.lines[line]
	if !ok {
		return false
	}
	for cloneLine, base := range li.Clones {
		if base < from || base >= to {
			continue
		}
		if cl, ok := c.lines[cloneLine]; ok && c.neededLocked(cl, make(map[uint64]bool)) {
			return true
		}
	}
	return false
}

// OldestReachable returns the smallest consistency point any retained
// snapshot or zombie (deleted-but-cloned) version of any line still pins,
// and ok=false when no such version exists; the minimum is cached until the
// next mutation. It is the reclaim horizon of drop-based expiry: a complete
// back-reference interval ending before it can never again be exposed by
// masking, because clone bases are always members of their parent's
// snapshot-or-zombie set, so the minimum over those sets bounds every
// PinnedIn answer too. Live lines need no term here — their references are
// incomplete (to == Infinity) or protected as override records.
func (c *MemCatalog) OldestReachable() (uint64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.reachValid {
		c.reachOK = false
		c.reach = 0
		for _, li := range c.lines {
			for v := range li.Snapshots {
				if !c.reachOK || v < c.reach {
					c.reach, c.reachOK = v, true
				}
			}
			for v := range li.Zombies {
				if !c.reachOK || v < c.reach {
					c.reach, c.reachOK = v, true
				}
			}
		}
		c.reachValid = true
	}
	return c.reach, c.reachOK
}

// Lines returns all known line IDs in ascending order.
func (c *MemCatalog) Lines() []uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]uint64, 0, len(c.lines))
	for id := range c.lines {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Snapshots returns the retained snapshot versions of a line, ascending.
func (c *MemCatalog) Snapshots(line uint64) []uint64 {
	return c.SnapshotsIn(line, 0, Infinity)
}

// catalogJSON is the serialized form of MemCatalog.
type catalogJSON struct {
	Lines []lineJSON `json:"lines"`
}

type lineJSON struct {
	ID        uint64      `json:"id"`
	Live      bool        `json:"live"`
	Parent    uint64      `json:"parent,omitempty"`
	Base      uint64      `json:"base,omitempty"`
	HasParent bool        `json:"has_parent,omitempty"`
	Snapshots []uint64    `json:"snapshots,omitempty"`
	Zombies   []uint64    `json:"zombies,omitempty"`
	Clones    [][2]uint64 `json:"clones,omitempty"` // [line, base]
}

// Generation returns the catalog's mutation count.
func (c *MemCatalog) Generation() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.gen
}

// MarshalJSON serializes the catalog deterministically.
func (c *MemCatalog) MarshalJSON() ([]byte, error) {
	data, _, err := c.marshal()
	return data, err
}

// marshal serializes the catalog and names the generation it serialized.
func (c *MemCatalog) marshal() ([]byte, uint64, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var cj catalogJSON
	for _, id := range c.linesSortedLocked() {
		li := c.lines[id]
		lj := lineJSON{
			ID: li.ID, Live: li.Live,
			Parent: li.Parent, Base: li.Base, HasParent: li.HasParent,
			Snapshots: sortedKeys(li.Snapshots),
			Zombies:   sortedKeys(li.Zombies),
		}
		for _, cl := range sortedKeys64(li.Clones) {
			lj.Clones = append(lj.Clones, [2]uint64{cl, li.Clones[cl]})
		}
		cj.Lines = append(cj.Lines, lj)
	}
	data, err := json.Marshal(cj)
	return data, c.gen, err
}

// UnmarshalJSON restores a catalog serialized by MarshalJSON.
func (c *MemCatalog) UnmarshalJSON(data []byte) error {
	var cj catalogJSON
	if err := json.Unmarshal(data, &cj); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.lines = make(map[uint64]*lineInfo, len(cj.Lines))
	for _, lj := range cj.Lines {
		li := newLineInfo(lj.ID)
		li.Live = lj.Live
		li.Parent, li.Base, li.HasParent = lj.Parent, lj.Base, lj.HasParent
		for _, v := range lj.Snapshots {
			li.Snapshots[v] = true
		}
		for _, v := range lj.Zombies {
			li.Zombies[v] = true
		}
		for _, cl := range lj.Clones {
			li.Clones[cl[0]] = cl[1]
		}
		c.lines[lj.ID] = li
	}
	if len(c.lines) == 0 {
		c.lines[0] = newLineInfo(0)
	}
	c.changed()
	return nil
}

func (c *MemCatalog) linesSortedLocked() []uint64 {
	out := make([]uint64, 0, len(c.lines))
	for id := range c.lines {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedKeys(m map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedKeys64(m map[uint64]uint64) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
