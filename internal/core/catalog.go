package core

import (
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
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
//
// MemCatalog is the mutator. Every change publishes a new immutable
// Topology, and whoever judges records by the topology — a query, a merge,
// a plan, a commit's expiry — takes one Topology for the whole operation, so a
// change made meanwhile is seen by the next operation and by no part of the
// running one.
type MemCatalog struct {
	mu    sync.Mutex // serializes mutators
	lines map[uint64]*lineInfo
	topo  atomic.Pointer[Topology]
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
	c.publish()
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

// Topology returns the current version of the topology. It never changes;
// a later mutation publishes a new one.
func (c *MemCatalog) Topology() *Topology { return c.topo.Load() }

// CreateSnapshot retains version v of line. v must be the CP being taken
// (or, at the earliest, the last one committed) and line must be live: then
// no finite interval of a run record contains v, and a merge that purged
// against a topology without the snapshot purged nothing it would have
// kept.
func (c *MemCatalog) CreateSnapshot(line, v uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	li, ok := c.lines[line]
	if !ok {
		return fmt.Errorf("core: snapshot on unknown line %d", line)
	}
	li.Snapshots[v] = true
	c.publish()
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
	for _, base := range li.Clones {
		if base == v {
			li.Zombies[v] = true
			break
		}
	}
	c.publish()
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
	c.publish()
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
	c.publish()
	return nil
}

// ReapZombies drops clone registrations whose clone lines are no longer
// needed, and zombie versions with no remaining clones — the paper's
// periodic zombie examination. It returns the number of zombie versions
// released. A pass that finds nothing to drop publishes nothing.
func (c *MemCatalog) ReapZombies() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	released, changed := 0, false
	for _, li := range c.lines {
		for cloneLine, base := range li.Clones {
			cl, ok := c.lines[cloneLine]
			if ok && c.neededLocked(cl, make(map[uint64]bool)) {
				continue
			}
			delete(li.Clones, cloneLine)
			changed = true
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
	if changed {
		c.publish()
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

// publish makes the catalog as it is now the current Topology. Callers hold
// mu.
func (c *MemCatalog) publish() {
	t := &Topology{lines: make(map[uint64]topoLine, len(c.lines))}
	var cj catalogJSON
	for _, id := range slices.Sorted(maps.Keys(c.lines)) {
		li := c.lines[id]
		tl := topoLine{live: li.Live, snaps: slices.Sorted(maps.Keys(li.Snapshots))}
		lj := lineJSON{
			ID: li.ID, Live: li.Live,
			Parent: li.Parent, Base: li.Base, HasParent: li.HasParent,
			Snapshots: tl.snaps,
			Zombies:   slices.Sorted(maps.Keys(li.Zombies)),
		}
		for _, cl := range slices.Sorted(maps.Keys(li.Clones)) {
			base := li.Clones[cl]
			lj.Clones = append(lj.Clones, [2]uint64{cl, base})
			if cli, ok := c.lines[cl]; ok && c.neededLocked(cli, make(map[uint64]bool)) {
				tl.clones = append(tl.clones, Clone{Line: cl, Base: base})
			}
		}
		for _, vs := range [][]uint64{lj.Snapshots, lj.Zombies} {
			if len(vs) > 0 && (!t.oldestOK || vs[0] < t.oldest) {
				t.oldest, t.oldestOK = vs[0], true
			}
		}
		t.lines[id] = tl
		cj.Lines = append(cj.Lines, lj)
	}
	// Integers and booleans only: Marshal cannot fail.
	t.data, _ = json.Marshal(cj)
	c.topo.Store(t)
}

// Lines returns all known line IDs in ascending order.
func (c *MemCatalog) Lines() []uint64 { return slices.Sorted(maps.Keys(c.Topology().lines)) }

// Snapshots returns the retained snapshot versions of a line, ascending.
func (c *MemCatalog) Snapshots(line uint64) []uint64 {
	return slices.Clone(c.Topology().SnapshotsIn(line, 0, Infinity))
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

// MarshalJSON serializes the catalog deterministically.
func (c *MemCatalog) MarshalJSON() ([]byte, error) { return slices.Clone(c.Topology().data), nil }

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
	c.publish()
	return nil
}

// Topology is one version of the snapshot topology, as a MemCatalog
// mutation published it: immutable, so its readers take no lock, and a
// reader that holds one sees the same topology for as long as it holds it.
// The slices its methods return are the topology's own: read them, do not
// modify them.
type Topology struct {
	lines map[uint64]topoLine
	// oldest is OldestReachable's answer, oldestOK whether there is one.
	oldest   uint64
	oldestOK bool
	// data is the catalog's serialization, what a manifest commit carries.
	data []byte
}

type topoLine struct {
	live   bool
	snaps  []uint64 // retained snapshot versions, ascending
	clones []Clone  // the needed clones made from this line, by line
}

// SnapshotsIn returns the retained (non-deleted) snapshot versions v of line
// with from <= v < to, in ascending order, or nil when there are none.
func (t *Topology) SnapshotsIn(line, from, to uint64) []uint64 {
	s := t.lines[line].snaps
	i, _ := slices.BinarySearch(s, from)
	j, _ := slices.BinarySearch(s, to)
	if i >= j {
		return nil
	}
	return s[i:j:j]
}

// IsLive reports whether the line's writable file system still exists.
func (t *Topology) IsLive(line uint64) bool { return t.lines[line].live }

// Clones returns the clones created from this line that are still needed
// (live, or carrying snapshots, or transitively cloned into needed lines),
// by line. Query expansion follows these edges.
func (t *Topology) Clones(line uint64) []Clone { return t.lines[line].clones }

// PinnedIn reports whether any version v of line with from <= v < to must
// be preserved for inheritance even though it may have been deleted:
// clone-base versions of needed clones, including zombie snapshots (Section
// 4.2.2).
func (t *Topology) PinnedIn(line, from, to uint64) bool {
	return slices.ContainsFunc(t.lines[line].clones, func(cl Clone) bool { return from <= cl.Base && cl.Base < to })
}

// OldestReachable returns the smallest consistency point any retained
// snapshot or zombie (deleted-but-cloned) version of any line still pins,
// and ok=false when no such version exists. It is the reclaim horizon of
// drop-based expiry: a complete back-reference interval ending before it
// can never again be exposed by masking, because clone bases are always
// members of their parent's snapshot-or-zombie set, so the minimum over
// those sets bounds every PinnedIn answer too. Live lines need no term here
// — their references are incomplete (to == Infinity) or protected as
// override records.
func (t *Topology) OldestReachable() (uint64, bool) { return t.oldest, t.oldestOK }
