// The engine's correctness net: one model of what a query must answer and
// one driver that holds the engine to it, on two schedules. The sequential
// schedule (TestStateMachine) draws seeded streams over the whole public
// op alphabet — updates, relocation, snapshot and clone topology, every
// maintenance call, clean and crashed reopens — under every durability
// mode, run format, compaction policy, retention policy and partitioning,
// compares answers after every step, crashes the store at every mutating
// I/O of its op lists, and shrinks a failing stream to a replayable
// regression row. It is the one crash harness above the log (whose own is
// wal.TestCrashAtEveryIO). The concurrent schedule
// (TestStateMachineConcurrent) runs the same model against table rows of
// one harness whose roles — ingest workers, checkpointer, snapshot churner,
// expiry loop, relocator, reader — race each other under -race.
//
// The model shares no code with the engine's query path: it keeps each
// reference's event history and the snapshot topology itself and restates
// Section 4.2's interval rules, structural inheritance and masking, and
// Section 5.1's relocation, from first principles. internal/naive stays the
// Section 4.1 ablation it was built as.
package core_test

import (
	"bytes"
	"cmp"
	"flag"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/backlogfs/backlog/internal/core"
	"github.com/backlogfs/backlog/internal/obs"
	"github.com/backlogfs/backlog/internal/storage"
	"github.com/backlogfs/backlog/internal/wal"
)

var (
	smSeed = flag.Int64("sm.seed", 0, "replay this one seed of each TestStateMachine config the -run pattern selects")
	smFor  = flag.Duration("sm.for", 0, "keep drawing TestStateMachine seeds until this much time has passed (split across configs)")
)

// smSeedsPerCombo is how many seeds of each combination the default run
// draws; -sm.for draws more.
const smSeedsPerCombo = 2

// smKillOps is how many ops of each seed have their kill points enumerated.
const smKillOps = 14

// refOp is one reference update: AddRef, or RemoveRef when remove is set.
type refOp struct {
	ref    core.Ref
	cp     uint64
	remove bool
}

func (o refOp) applyTo(eng *core.Engine) {
	if o.remove {
		eng.RemoveRef(o.ref, o.cp)
	} else {
		eng.AddRef(o.ref, o.cp)
	}
}

// hammerStreams builds per-worker update streams: worker w owns inode w+1,
// adds each reference once (offset = op index) and removes a random live
// one about every third op, at CP tags rising from 1 to maxCP. Identities
// are disjoint across workers and nothing is re-added, so the final answers
// do not depend on how the streams interleave with each other or with
// checkpoints — which is what lets one model check a concurrent run.
func hammerStreams(workers, opsEach, blocks int, maxCP uint64) [][]refOp {
	streams := make([][]refOp, workers)
	for w := range streams {
		rng := rand.New(rand.NewSource(int64(4000 + w)))
		var live []core.Ref
		for i := 0; i < opsEach; i++ {
			cp := 1 + uint64(i)*maxCP/uint64(opsEach)
			if len(live) > 0 && rng.Intn(3) == 0 {
				k := rng.Intn(len(live))
				streams[w] = append(streams[w], refOp{ref: live[k], cp: cp, remove: true})
				live = append(live[:k], live[k+1:]...)
				continue
			}
			r := core.Ref{Block: uint64(rng.Intn(blocks)), Inode: uint64(w + 1), Offset: uint64(i), Length: 1}
			live = append(live, r)
			streams[w] = append(streams[w], refOp{ref: r, cp: cp})
		}
	}
	return streams
}

// cpBatches splits a stream into runs of ops with the same CP tag.
func cpBatches(stream []refOp) [][]refOp {
	var out [][]refOp
	for i, o := range stream {
		if i == 0 || o.cp != stream[i-1].cp {
			out = append(out, nil)
		}
		out[len(out)-1] = append(out[len(out)-1], o)
	}
	return out
}

// smEvent is one update in a reference's history.
type smEvent struct {
	cp  uint64
	add bool
}

// smLine is the model's record of one snapshot line.
type smLine struct {
	live   bool
	cloned bool // parent and base name the snapshot it was cloned from
	parent uint64
	base   uint64
	snaps  map[uint64]bool
}

// model is the expected behaviour of the engine: per-reference event
// histories, keyed by block, and the snapshot topology.
type model struct {
	hist  map[uint64]map[core.Ref][]smEvent
	lines map[uint64]*smLine
}

func newModel() *model {
	return &model{
		hist:  map[uint64]map[core.Ref][]smEvent{},
		lines: map[uint64]*smLine{0: {live: true, snaps: map[uint64]bool{}}},
	}
}

func (m *model) update(r core.Ref, cp uint64, add bool) {
	if m.hist[r.Block] == nil {
		m.hist[r.Block] = map[core.Ref][]smEvent{}
	}
	m.hist[r.Block][r] = append(m.hist[r.Block][r], smEvent{cp: cp, add: add})
}

func (m *model) apply(o refOp) { m.update(o.ref, o.cp, !o.remove) }

// relocate re-keys every history of one block onto another (Section 5.1):
// the references move, intervals and all.
func (m *model) relocate(from, to uint64) {
	for r, evs := range m.hist[from] {
		r.Block = to
		for _, ev := range evs {
			m.update(r, ev.cp, ev.add)
		}
	}
	delete(m.hist, from)
}

func (m *model) snapshot(line, v uint64) { m.lines[line].snaps[v] = true }

func (m *model) clone(line, parent, base uint64) {
	m.lines[line] = &smLine{live: true, cloned: true, parent: parent, base: base, snaps: map[uint64]bool{}}
}

// needed reports whether a line can still contribute to an answer: it is
// live, keeps a snapshot, or has a clone that is needed.
func (m *model) needed(id uint64) bool {
	if l := m.lines[id]; l.live || len(l.snaps) > 0 {
		return true
	}
	for cid, c := range m.lines {
		if c.cloned && c.parent == id && m.needed(cid) {
			return true
		}
	}
	return false
}

// smSpan is one validity interval [from, to) of an identity.
type smSpan struct {
	from, to  uint64
	inherited bool
}

// smIntervals derives a reference's intervals from its history. An add and
// a remove in one CP cancel; a re-add in the CP that closed an interval
// continues it; a remove with nothing open ends a reference the line
// inherited, which it records as the override [0, cp) (Section 4.2.2). An
// override re-added in its own CP leaves no record at all — the line
// inherits again.
func smIntervals(evs []smEvent) []smSpan {
	var out []smSpan
	open, from := false, uint64(0)
	for _, ev := range evs {
		n := len(out)
		switch {
		case ev.add && open:
		case ev.add && n > 0 && out[n-1].to == ev.cp:
			open, from, out = true, out[n-1].from, out[:n-1]
		case ev.add:
			open, from = true, ev.cp
		case !open:
			out = append(out, smSpan{from: 0, to: ev.cp})
		case from == ev.cp:
			open = false
		default:
			open, out = false, append(out, smSpan{from: from, to: ev.cp})
		}
	}
	if open && from != 0 {
		out = append(out, smSpan{from: from, to: core.Infinity})
	}
	return out
}

// owners is the answer Query must give for a block.
func (m *model) owners(block uint64) []core.Owner {
	type ident struct{ inode, offset, line, length uint64 }
	groups := map[ident][]smSpan{}
	var work []ident
	for r, evs := range m.hist[block] {
		if spans := smIntervals(evs); len(spans) > 0 {
			id := ident{r.Inode, r.Offset, r.Line, r.Length}
			groups[id] = spans
			work = append(work, id)
		}
	}
	// Structural inheritance: an interval of a line that covers the base of
	// a needed clone gives the clone the reference from version 0 on, unless
	// the clone has a record from 0 of its own (it ended the inherited
	// reference). What a clone inherits, its clones inherit in turn.
	for len(work) > 0 {
		id := work[len(work)-1]
		work = work[:len(work)-1]
		for cid, c := range m.lines {
			if !c.cloned || c.parent != id.line || !m.needed(cid) ||
				!slices.ContainsFunc(groups[id], func(s smSpan) bool { return s.from <= c.base && c.base < s.to }) {
				continue
			}
			cl := ident{id.inode, id.offset, cid, id.length}
			if slices.ContainsFunc(groups[cl], func(s smSpan) bool { return s.from == 0 }) {
				continue
			}
			groups[cl] = append(groups[cl], smSpan{from: 0, to: core.Infinity, inherited: true})
			work = append(work, cl)
		}
	}
	// Masking: an interval answers with the snapshots of its line it spans,
	// and as live if it is open on a live line; with neither it is not an
	// owner at all.
	var out []core.Owner
	for id, spans := range groups {
		l := m.lines[id.line]
		if l == nil {
			l = &smLine{}
		}
		for _, s := range spans {
			var versions []uint64
			for v := range l.snaps {
				if s.from <= v && v < s.to {
					versions = append(versions, v)
				}
			}
			slices.Sort(versions)
			live := s.to == core.Infinity && l.live
			if len(versions) == 0 && !live {
				continue
			}
			out = append(out, core.Owner{Inode: id.inode, Offset: id.offset, Line: id.line, Length: id.length,
				From: s.from, To: s.to, Versions: versions, Live: live, Inherited: s.inherited})
		}
	}
	slices.SortFunc(out, func(a, b core.Owner) int {
		return cmp.Or(cmp.Compare(a.Line, b.Line), cmp.Compare(a.Inode, b.Inode),
			cmp.Compare(a.Offset, b.Offset), cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	return out
}

// smChunk is the length of the QueryRange calls diff makes. It divides no
// PartitionSpan the tests use, so chunks cross partition boundaries.
const smChunk = 5

// diff compares the engine's answers with the model's: Query's for blocks,
// and QueryRange's, smChunk blocks a call, for every block below span.
func (m *model) diff(eng *core.Engine, span uint64, blocks []uint64) error {
	want := map[uint64][]core.Owner{}
	owners := func(b uint64) []core.Owner {
		if _, ok := want[b]; !ok {
			want[b] = m.owners(b)
		}
		return want[b]
	}
	for _, b := range blocks {
		got, err := eng.Query(b)
		if err != nil {
			return fmt.Errorf("query %d: %w", b, err)
		}
		if !slices.EqualFunc(got, owners(b), sameOwner) {
			return fmt.Errorf("block %d answers\n  %+v\nthe model\n  %+v", b, got, owners(b))
		}
	}
	for lo := uint64(0); lo < span; lo += smChunk {
		n := min(smChunk, span-lo)
		next, bad := lo, error(nil)
		err := eng.QueryRange(lo, int(n), func(b uint64, got []core.Owner) bool {
			switch {
			case b != next:
				bad = fmt.Errorf("visited block %d, want %d", b, next)
			case !slices.EqualFunc(got, owners(b), sameOwner):
				bad = fmt.Errorf("block %d answers\n  %+v\nthe model\n  %+v", b, got, owners(b))
			}
			next++
			return bad == nil
		})
		if err = cmp.Or(err, bad); err == nil && next != lo+n {
			err = fmt.Errorf("visited %d of its %d blocks", next-lo, n)
		}
		if err != nil {
			return fmt.Errorf("QueryRange(%d, %d): %w", lo, n, err)
		}
	}
	return nil
}

// sameOwner compares two owners, no versions equal to an empty list of them.
func sameOwner(a, b core.Owner) bool {
	if !slices.Equal(a.Versions, b.Versions) {
		return false
	}
	a.Versions, b.Versions = nil, nil
	return reflect.DeepEqual(a, b)
}

// check fails the test unless the engine answers like the model for every
// block below n, through Query and QueryRange, and every block the model
// has history for.
func (m *model) check(t testing.TB, eng *core.Engine, n uint64) {
	t.Helper()
	blocks := make([]uint64, 0, n)
	for b := range n {
		blocks = append(blocks, b)
	}
	for b := range m.hist {
		if b >= n {
			blocks = append(blocks, b)
		}
	}
	if err := m.diff(eng, n, blocks); err != nil {
		t.Fatal(err)
	}
}

// copyHist returns a deep copy of the model's histories.
func (m *model) copyHist() map[uint64]map[core.Ref][]smEvent {
	out := make(map[uint64]map[core.Ref][]smEvent, len(m.hist))
	for b, refs := range m.hist {
		out[b] = make(map[core.Ref][]smEvent, len(refs))
		for r, evs := range refs {
			out[b][r] = slices.Clone(evs)
		}
	}
	return out
}

// lineIDs returns the model's lines that satisfy keep, ascending.
func (m *model) lineIDs(keep func(*smLine) bool) []uint64 {
	var ids []uint64
	for id, l := range m.lines {
		if keep(l) {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// liveOwner reports whether r's identity is a live owner of r's block.
func (m *model) liveOwner(r core.Ref) bool {
	return slices.ContainsFunc(m.owners(r.Block), func(o core.Owner) bool {
		return o.Live && o.Inode == r.Inode && o.Offset == r.Offset && o.Line == r.Line && o.Length == r.Length
	})
}

// smKind names an op of the sequential schedule; the comments say what
// smOp's operands a–d are to it.
type smKind uint8

const (
	opAdd            smKind = iota // block, inode, offset, line
	opRemove                       // block, inode, offset, line
	opRelocate                     // from block a to block b
	opSnapshot                     // of line a, at the CP being taken
	opDeleteSnapshot               // version b of line a
	opClone                        // new line a from version c of line b
	opDeleteLine                   // line a
	opReap
	opCheckpoint
	opCompact  // Compact, which commits the catalog
	opMaintain // MaintainNow, which commits nothing: its merges ride the next commit
	opExpire   // Expire, which commits the catalog
	opReopen   // Close (which commits the catalog), then Open
	// opCrash with a = 0 is the power failing now. With a = k > 0 it fails at
	// the k-th mutating call of the next op: that call and every later one
	// fail (a write at it tears if b = 1, its first half durable), the op
	// returns, and the power is out. Either way the store then reopens and
	// recover holds it to the contract.
	opCrash
)

var smKindNames = [...]string{"opAdd", "opRemove", "opRelocate", "opSnapshot", "opDeleteSnapshot", "opClone",
	"opDeleteLine", "opReap", "opCheckpoint", "opCompact", "opMaintain", "opExpire", "opReopen", "opCrash"}

type smOp struct {
	k          smKind
	a, b, c, d uint64
}

// String renders the op as the composite literal a regression row holds.
func (o smOp) String() string {
	return fmt.Sprintf("{%s, %d, %d, %d, %d}", smKindNames[o.k], o.a, o.b, o.c, o.d)
}

// smConfig is one store configuration of the sequential schedule.
type smConfig struct {
	mode       wal.Durability
	raw        bool // CompressionNone
	leveled    bool // PolicyLeveled
	retainLive bool
	parts      int // one partition or four block ranges
}

var (
	smModeNames = map[wal.Durability]string{wal.CheckpointOnly: "cponly", wal.Buffered: "buffered", wal.Sync: "sync"}
	smPartNames = []string{"p1", "range4"}
)

// combo names the config without its partitioning, which each seed draws.
func (c smConfig) combo() string {
	return fmt.Sprintf("%s-%s-%s-%s", smModeNames[c.mode], map[bool]string{false: "delta", true: "raw"}[c.raw],
		map[bool]string{false: "full", true: "leveled"}[c.leveled], map[bool]string{false: "all", true: "live"}[c.retainLive])
}

func (c smConfig) String() string { return c.combo() + "-" + smPartNames[c.parts] }

// smCombos lists the 24 mode × format × policy × retention combinations.
func smCombos() []smConfig {
	var out []smConfig
	for _, mode := range []wal.Durability{wal.CheckpointOnly, wal.Buffered, wal.Sync} {
		for _, raw := range []bool{false, true} {
			for _, leveled := range []bool{false, true} {
				for _, live := range []bool{false, true} {
					out = append(out, smConfig{mode: mode, raw: raw, leveled: leveled, retainLive: live})
				}
			}
		}
	}
	return out
}

// smConfigNamed finds the config a regression row names.
func smConfigNamed(name string) (smConfig, bool) {
	for _, cfg := range smCombos() {
		for cfg.parts = range smPartNames {
			if cfg.String() == name {
				return cfg, true
			}
		}
	}
	return smConfig{}, false
}

// smBlocks is the sequential schedule's block space; updates land in its
// lower half, relocations anywhere.
const smBlocks = 32

// options opens the store as backlog.Open does: the engine keeps the
// catalog in its manifest and fills cat from it.
func (c smConfig) options(fs *storage.MemFS, cat *core.MemCatalog) core.Options {
	opts := core.Options{VFS: fs, Catalog: cat, Durability: c.mode, WriteShards: 2,
		CompactionPolicy: core.PolicyFullAt{Threshold: 3}, Fanout: 2}
	if c.raw {
		opts.Compression = core.CompressionNone
	}
	if c.leveled {
		opts.CompactionPolicy = core.PolicyLeveled{}
	}
	if c.retainLive {
		opts.Retention = core.RetainLive
	}
	if c.parts == 1 {
		opts.Partitions, opts.PartitionSpan = 4, smBlocks/4
	}
	return opts
}

// smCommit is a state a crash may recover: the CP and catalog of a commit,
// and the model's topology under that catalog.
type smCommit struct {
	cp    uint64
	cat   []byte
	lines map[uint64]*smLine
}

// smDriver runs one sequential schedule against a store and the model.
type smDriver struct {
	cfg smConfig
	fs  *storage.MemFS
	cat *core.MemCatalog // the open store's: every Open fills a fresh one
	eng *core.Engine
	m   *model
	tag uint64 // the CP being taken: the last checkpoint's + 1

	// base is the history as of the last checkpoint and pending the updates
	// and relocations since, in order: what a crash may take back. A Sync
	// store keeps pending[:acked], the ones acknowledged.
	base    map[uint64]map[core.Ref][]smEvent
	pending []smOp
	acked   int
	// commits are what the manifest may hold: the last commit known to have
	// landed, then the state a dying op may have committed. Nothing commits
	// in the background: the engine starts no goroutine.
	commits []smCommit

	kill   smOp      // an armed opCrash, for the next op
	dying  bool      // the running op has the kill armed
	undo   *smDriver // tag, base, pending and acked before a dying checkpoint
	quiet  bool      // apply ops without comparing: a checked run passed them
	mark   int64     // Stats().Calls when the running op's I/O began
	before string    // the commit when the dying op began
	lost   bool      // the last crash recovered that commit

	nextLine uint64
	moves    [][2]uint64 // relocations so far, for moving blocks back
	expired  uint64      // runs expiry dropped, over every Open of the store
	queue    []smOp      // ops next draws before any other
	io       []smIO      // each op's I/O, as do saw it
	took     []tookOp    // the ops the store was given, with the CP being taken
}

func newSMDriver(cfg smConfig) (*smDriver, error) {
	d := &smDriver{cfg: cfg, fs: storage.NewMemFS(), m: newModel(), tag: 1, nextLine: 1}
	d.base = d.m.copyHist()
	if err := d.open(); err != nil {
		return nil, err
	}
	d.commits = []smCommit{d.commit()}
	return d, nil
}

// open opens the store on a fresh catalog, which Open fills from the
// manifest.
func (d *smDriver) open() error {
	cat := core.NewMemCatalog()
	eng, err := core.Open(d.cfg.options(d.fs, cat))
	if err != nil {
		return err
	}
	d.cat, d.eng = cat, eng
	return nil
}

// close closes the store, once, as backlog.DB.Close does; Close commits
// the catalog.
func (d *smDriver) close() error {
	eng := d.eng
	if d.eng = nil; eng == nil {
		return nil
	}
	err := eng.Close()
	d.expired += eng.Stats().RunsExpired
	return err
}

// commit is the state the store commits now.
func (d *smDriver) commit() smCommit {
	cat, _ := d.cat.MarshalJSON()
	return smCommit{cp: d.tag - 1, cat: cat, lines: copyLines(d.m.lines)}
}

func copyLines(lines map[uint64]*smLine) map[uint64]*smLine {
	out := make(map[uint64]*smLine, len(lines))
	for id, l := range lines {
		c := *l
		c.snaps = maps.Clone(l.snaps)
		out[id] = &c
	}
	return out
}

// committed records that the op just run committed the store's state, unless
// it is dying, when it may not have.
func (d *smDriver) committed() {
	if !d.dying {
		d.commits = []smCommit{d.commit()}
	}
}

// manifest names the open store's last commit: the files it needs, the
// one that carries it first among them, which every commit makes anew; ""
// before the first commit or with no store open.
func (d *smDriver) manifest() string {
	if d.eng == nil {
		return ""
	}
	return strings.Join(d.eng.Files(), " ")
}

func (d *smDriver) diffAll() error {
	blocks := make([]uint64, smBlocks)
	for b := range blocks {
		blocks[b] = uint64(b)
	}
	return d.m.diff(d.eng, smBlocks, blocks)
}

// compare compares blocks, every block if none are named, unless the op is
// dying or the run is quiet.
func (d *smDriver) compare(blocks ...uint64) error {
	switch {
	case d.dying || d.quiet:
		return nil
	case len(blocks) == 0:
		return d.diffAll()
	}
	return d.m.diff(d.eng, 0, blocks)
}

// rollback sets the model to the last checkpoint plus the first k updates
// since.
func (d *smDriver) rollback(k int) {
	d.m.hist, d.pending = (&model{hist: d.base}).copyHist(), d.pending[:k]
	for _, op := range d.pending {
		d.redo(op)
	}
}

// redo applies a pending update or relocation to the model.
func (d *smDriver) redo(op smOp) {
	if op.k == opRelocate {
		d.m.relocate(op.a, op.b)
		return
	}
	d.m.update(core.Ref{Block: op.a, Inode: op.b, Offset: op.c, Line: op.d, Length: 1}, d.tag, op.k == opAdd)
}

// begin starts an op's I/O, arming the kill on it if one is armed.
func (d *smDriver) begin() {
	d.mark = d.fs.Stats().Calls
	var plan storage.FailurePlan
	if d.kill.a > 0 {
		plan = storage.FailurePlan{KillAt: d.mark + int64(d.kill.a), TornWrite: d.kill.b == 1, TornWriteDurable: d.kill.b == 1}
		d.kill, d.dying, d.before = smOp{}, true, d.manifest()
	}
	d.fs.SetFailurePlan(plan)
}

// step applies one op to the engine and the model and compares what it may
// have changed: the blocks an update or relocation touched, every block
// after a checkpoint, maintenance or reopen. An op the model's state makes
// meaningless — a remove of what is not live, a clone of a deleted
// snapshot — is skipped, so any subsequence of a stream replays. An op the
// kill is armed on applies to the model as if it completed; the crash after
// it decides whether it did.
func (d *smDriver) step(op smOp) error {
	if op.k == opCrash && op.a > 0 {
		d.kill = op
		return nil
	}
	if op.k != opCrash {
		d.begin()
	}
	err := d.apply(op)
	if !d.dying {
		return err
	}
	// The op died, maybe after committing: a crash's recovery and a
	// maintenance pass commit nothing, any other op what it would have.
	d.dying = false
	if op.k != opCrash && op.k != opMaintain {
		d.commits = append(d.commits, d.commit())
	}
	before := d.before
	err = d.crash()
	d.lost = d.manifest() == before
	return err
}

func (d *smDriver) apply(op smOp) error {
	m := d.m
	switch op.k {
	case opAdd, opRemove:
		r := core.Ref{Block: op.a, Inode: op.b, Offset: op.c, Line: op.d, Length: 1}
		if l := m.lines[r.Line]; l == nil || !l.live || m.liveOwner(r) == (op.k == opAdd) {
			return nil
		}
		refOp{ref: r, cp: d.tag, remove: op.k == opRemove}.applyTo(d.eng)
		d.take(op)
		d.log(op)
		return d.compare(r.Block)
	case opRelocate:
		if op.a == op.b || len(m.hist[op.a]) == 0 || len(m.hist[op.b]) > 0 {
			return nil
		}
		if err := d.alive(d.eng.RelocateBlock(op.a, op.b)); err != nil {
			return err
		}
		d.take(op)
		d.log(op)
		d.moves = append(d.moves, [2]uint64{op.a, op.b})
		return d.compare(op.a, op.b)
	case opSnapshot:
		if l := m.lines[op.a]; l == nil || !l.live || l.snaps[d.tag] {
			return nil
		}
		m.snapshot(op.a, d.tag)
		d.take(op)
		return d.cat.CreateSnapshot(op.a, d.tag)
	case opDeleteSnapshot:
		if l := m.lines[op.a]; l == nil || !l.snaps[op.b] {
			return nil
		}
		delete(m.lines[op.a].snaps, op.b)
		d.take(op)
		return d.cat.DeleteSnapshot(op.a, op.b)
	case opClone:
		if p := m.lines[op.b]; p == nil || !p.snaps[op.c] || m.lines[op.a] != nil {
			return nil
		}
		m.clone(op.a, op.b, op.c)
		d.take(op)
		return d.cat.CreateClone(op.a, op.b, op.c)
	case opDeleteLine:
		if l := m.lines[op.a]; op.a == 0 || l == nil || !l.live {
			return nil
		}
		m.lines[op.a].live = false
		d.take(op)
		return d.cat.DeleteLine(op.a)
	case opReap:
		d.cat.ReapZombies() // drops only lines no answer can reach
		return nil
	case opCheckpoint:
		if d.dying {
			d.undo = &smDriver{tag: d.tag, base: d.base, pending: d.pending, acked: d.acked}
		}
		d.take(op)
		if err := d.alive(d.eng.Checkpoint(d.tag)); err != nil {
			return err
		}
		d.tag++
		d.base, d.pending, d.acked = m.copyHist(), nil, 0
		d.committed()
	case opCompact, opMaintain, opExpire:
		d.take(op)
		var err error
		switch op.k {
		case opCompact:
			err = d.eng.Compact()
		case opMaintain:
			err = d.eng.MaintainNow()
		default:
			_, err = d.eng.Expire()
		}
		if err := d.alive(err); err != nil {
			return err
		}
		if op.k != opMaintain {
			d.committed()
		}
	case opReopen:
		d.take(op)
		if err := d.alive(d.close()); err != nil {
			return err
		}
		if err := d.open(); err != nil || d.dying {
			return d.alive(err)
		}
		if d.cfg.mode == wal.CheckpointOnly {
			d.rollback(0) // Close drops what no checkpoint took
		}
		d.acked = len(d.pending)
		d.committed()
		if _, err := d.adopt(); err != nil {
			return err
		}
		if err := noOrphans(d.fs, d.eng); err != nil {
			return err
		}
		if err := d.eng.DB().CheckHeaders(); err != nil {
			return err
		}
	case opCrash:
		return d.crash()
	}
	return d.compare()
}

// alive passes err on unless the op is dying: a failure is what its kill
// point makes.
func (d *smDriver) alive(err error) error {
	if d.dying {
		return nil
	}
	return err
}

// take records an op the store is given.
func (d *smDriver) take(op smOp) { d.took = append(d.took, tookOp{op, d.tag}) }

// log records an update or relocation the engine took.
func (d *smDriver) log(op smOp) {
	d.redo(op)
	d.pending = append(d.pending, op)
	if !d.dying {
		d.acked = len(d.pending)
	}
}

// crash fails every I/O from here on, closes the store, drops what was never
// synced and reopens: the power failing. A kill armed on the crash falls in
// its recovery, and the crash after it checks.
func (d *smDriver) crash() error {
	d.fs.SetFailurePlan(storage.FailurePlan{KillAt: d.fs.Stats().Calls + 1})
	d.close()
	d.fs.Crash()
	d.begin()
	if err := d.open(); err != nil || d.dying {
		return d.alive(err)
	}
	return d.recover()
}

// recover holds a store reopened after a crash to the contract. Its CP and
// catalog are those of a commit that may have landed, and its answers the
// model's under that catalog. The directory holds only the file that
// carries that commit, the files it names and log segments. Of the updates
// since the checkpoint, a
// CheckpointOnly store keeps none, a Sync store every acknowledged one and
// a Buffered store some prefix; the op the power failed in may have landed
// either way.
func (d *smDriver) recover() error {
	undo := d.undo
	d.undo = nil
	c, err := d.adopt()
	if err != nil {
		return err
	}
	if undo != nil && c.cp+1 == undo.tag {
		d.tag, d.base, d.pending, d.acked = undo.tag, undo.base, undo.pending, undo.acked
	}
	if err := noOrphans(d.fs, d.eng); err != nil {
		return err
	}
	if err := d.eng.DB().CheckHeaders(); err != nil {
		return err
	}
	lo, hi := 0, len(d.pending)
	switch d.cfg.mode {
	case wal.CheckpointOnly:
		hi = 0
	case wal.Sync:
		lo = d.acked
	}
	return d.survivingPrefix(lo, hi)
}

// adopt finds the commit whose CP and catalog the reopened store has, and
// sets the model's topology to that commit's.
func (d *smDriver) adopt() (smCommit, error) {
	cp := d.eng.CP()
	cat, _ := d.cat.MarshalJSON()
	var may []string
	for _, c := range d.commits {
		if c.cp == cp && bytes.Equal(c.cat, cat) {
			d.m.lines, d.commits = copyLines(c.lines), []smCommit{c}
			return c, nil
		}
		may = append(may, fmt.Sprintf("CP %d %s", c.cp, c.cat))
	}
	return smCommit{}, fmt.Errorf("reopened at CP %d with catalog %s; the commits that may have landed:\n  %s",
		cp, cat, strings.Join(may, "\n  "))
}

// survivingPrefix finds the longest prefix of the updates since the last
// checkpoint, at least lo and at most hi of them, whose model the recovered
// store answers like, and adopts it. The candidates differ only in the
// blocks those updates touched, so only the one adopted is compared whole.
func (d *smDriver) survivingPrefix(lo, hi int) error {
	all := d.pending
	var touched []uint64
	for _, op := range all[lo:hi] {
		touched = append(touched, op.a)
		if op.k == opRelocate {
			touched = append(touched, op.b)
		}
	}
	var first error
	for k := hi; k >= lo; k-- {
		d.pending = all
		d.rollback(k)
		err := d.m.diff(d.eng, 0, touched)
		if err == nil {
			d.acked = k
			return d.diffAll()
		}
		if first == nil {
			first = err
		}
	}
	return fmt.Errorf("no prefix of %d to %d of the %d updates since the last checkpoint survived the crash; the longest: %w",
		lo, hi, len(all), first)
}

// next draws an op the model's state makes meaningful.
func (d *smDriver) next(rng *rand.Rand) smOp {
	m := d.m
	pick := func(ids []uint64) uint64 { return ids[rng.Intn(len(ids))] }
	live := m.lineIDs(func(l *smLine) bool { return l.live })
	type snap struct{ line, v uint64 }
	var snaps []snap
	for _, id := range m.lineIDs(func(l *smLine) bool { return len(l.snaps) > 0 }) {
		for v := range m.lines[id].snaps {
			snaps = append(snaps, snap{id, v})
		}
	}
	slices.SortFunc(snaps, func(a, b snap) int { return cmp.Or(cmp.Compare(a.v, b.v), cmp.Compare(a.line, b.line)) })
	// Under RetainLive, expiry drops a run only once a tiered merge has
	// sealed completed intervals into it and no snapshot at or below its
	// window is reachable, which uniform draws rarely line up. One draw in
	// 40 runs that cycle: snapshot line 0, checkpoint, remove a few of its
	// live references, checkpoint, merge, delete every snapshot, expire.
	if len(d.queue) == 0 && d.cfg.retainLive && m.lines[0].live && rng.Intn(40) == 0 {
		d.queue = append(d.queue, smOp{k: opSnapshot}, smOp{k: opCheckpoint})
		for b := uint64(0); b < smBlocks && len(d.queue) < 2+3; b++ { // three removes at most
			for _, o := range m.owners(b) {
				if o.Live && o.Line == 0 && len(d.queue) < 2+3 {
					d.queue = append(d.queue, smOp{opRemove, b, o.Inode, o.Offset, 0})
				}
			}
		}
		d.queue = append(d.queue, smOp{k: opCheckpoint}, smOp{k: opCompact})
		for _, s := range append(snaps, snap{0, d.tag}) {
			d.queue = append(d.queue, smOp{k: opDeleteSnapshot, a: s.line, b: s.v})
		}
		d.queue = append(d.queue, smOp{k: opExpire})
	}
	if len(d.queue) > 0 {
		op := d.queue[0]
		d.queue = d.queue[1:]
		return op
	}
	x := rng.Intn(100)
	switch {
	case x < 22 && len(live) > 0:
		b := uint64(rng.Intn(smBlocks))
		var owners []core.Owner
		for _, o := range m.owners(b) {
			if o.Live {
				owners = append(owners, o)
			}
		}
		if len(owners) > 0 {
			o := owners[rng.Intn(len(owners))]
			return smOp{opRemove, b, o.Inode, o.Offset, o.Line}
		}
		fallthrough
	case x < 50 && len(live) > 0:
		return smOp{opAdd, uint64(rng.Intn(smBlocks / 2)), uint64(1 + rng.Intn(3)), uint64(rng.Intn(2)), pick(live)}
	case x < 57:
		if len(d.moves) > 0 && rng.Intn(2) == 0 {
			mv := d.moves[rng.Intn(len(d.moves))]
			return smOp{k: opRelocate, a: mv[1], b: mv[0]}
		}
		from, to := uint64(rng.Intn(smBlocks)), uint64(rng.Intn(smBlocks))
		for i := 0; i < smBlocks && len(m.hist[from]) == 0; i++ {
			from = (from + 1) % smBlocks
		}
		for i := 0; i < smBlocks && len(m.hist[to]) > 0; i++ {
			to = (to + 1) % smBlocks
		}
		return smOp{k: opRelocate, a: from, b: to}
	case x < 64 && len(live) > 0:
		return smOp{k: opSnapshot, a: pick(live)}
	case x < 70 && len(snaps) > 0:
		// The oldest snapshot half the time: moving the reclaim horizon is
		// what gives expiry something to drop.
		s := snaps[0]
		if rng.Intn(2) == 0 {
			s = snaps[rng.Intn(len(snaps))]
		}
		return smOp{k: opDeleteSnapshot, a: s.line, b: s.v}
	case x < 74 && len(snaps) > 0:
		s := snaps[rng.Intn(len(snaps))]
		d.nextLine++
		return smOp{k: opClone, a: d.nextLine - 1, b: s.line, c: s.v}
	case x < 76 && len(live) > 1:
		return smOp{k: opDeleteLine, a: pick(live[1:])}
	case x < 78:
		return smOp{k: opReap}
	case x < 89:
		return smOp{k: opCheckpoint}
	case x < 92:
		return smOp{k: opCompact}
	case x < 95:
		return smOp{k: opMaintain}
	case x < 97:
		return smOp{k: opExpire}
	case x < 99:
		return smOp{k: opReopen}
	}
	return smOp{k: opCrash}
}

// smIO is what a checked run saw of one op: its mutating calls (a crash's
// counted from its recovery on), and whether it made a commit.
type smIO struct {
	calls   int64
	commits bool
}

// do steps op and records its I/O.
func (d *smDriver) do(op smOp) error {
	before, commit := d.fs.Stats(), d.manifest()
	err := d.step(op)
	st := d.fs.Stats()
	d.io = append(d.io, smIO{calls: st.Calls - max(before.Calls, d.mark), commits: d.manifest() != commit})
	return err
}

// smRun replays ops on a fresh store and compares every block at the end.
// It returns what it saw of each op's I/O, the index of the op that failed
// (len(ops) for the final comparison) and the failure.
func smRun(cfg smConfig, ops []smOp) ([]smIO, int, error) {
	d, err := newSMDriver(cfg)
	if err != nil {
		return nil, 0, err
	}
	defer d.close()
	for i, op := range ops {
		if err := d.do(op); err != nil {
			return nil, i, err
		}
	}
	return d.io, len(ops), d.diffAll()
}

// smShrink drops chunks of ops, halving the chunk size down to single ops,
// as long as the replay still fails.
func smShrink(cfg smConfig, ops []smOp) []smOp {
	for chunk := len(ops) / 2; chunk >= 1; chunk /= 2 {
		for i := 0; i+chunk <= len(ops); {
			cand := slices.Concat(ops[:i], ops[i+chunk:])
			if _, _, err := smRun(cfg, cand); err != nil {
				ops = cand
			} else {
				i += chunk
			}
		}
	}
	return ops
}

// smRow renders a shrunk op list as a regression row.
func smRow(cfg smConfig, ops []smOp) string {
	var row strings.Builder
	for _, op := range ops {
		fmt.Fprintf(&row, "\t\t%v,\n", op)
	}
	return fmt.Sprintf("shrunk to %d ops; as a regression row:\n\t{\"name\", %q, []smOp{\n%s\t}},", len(ops), cfg.String(), row.String())
}

// smTally counts kill points per op kind and, of those in an op that
// commits, the ones whose crash recovered the manifest of before the op.
type smTally struct {
	points, committing, lost [opCrash + 1]int
}

func (t *smTally) String() string {
	var b strings.Builder
	for k, n := range t.points {
		if n > 0 {
			fmt.Fprintf(&b, " %s %d", smKindNames[k], n)
		}
		if t.committing[k] > 0 {
			fmt.Fprintf(&b, " (%d in a commit, %d lost it)", t.committing[k], t.lost[k])
		}
	}
	return b.String()
}

// smKillAll enumerates the kill points of ops, whose checked run saw io:
// every mutating call of every op, torn at every other one. Each replays
// the ops before the killed one unchecked, crashes the store at the call
// and holds what it recovers to the contract (recover), then checkpoints,
// reopens and compares it once more. It returns the first failing kill
// point as an op list, and its failure.
func smKillAll(cfg smConfig, ops []smOp, io []smIO, tally *smTally) ([]smOp, error) {
	var k uint64
	for i, op := range ops {
		for j := uint64(1); j <= uint64(io[i].calls); j++ {
			k++
			row := slices.Concat(ops[:i], []smOp{{k: opCrash, a: j, b: k % 2}, op, {k: opCheckpoint}, {k: opReopen}})
			lost, err := smKill(cfg, row)
			if err != nil {
				return row, fmt.Errorf("op %d %v killed at its call %d of %d: %w", i, op, j, io[i].calls, err)
			}
			tally.points[op.k]++
			if io[i].commits {
				tally.committing[op.k]++
				if lost {
					tally.lost[op.k]++
				}
			}
		}
	}
	return nil, nil
}

// smKill replays a kill point's op list: only the crash's recovery and the
// last op compare. It reports whether the crash lost the killed op's commit.
func smKill(cfg smConfig, row []smOp) (lost bool, err error) {
	d, err := newSMDriver(cfg)
	if err != nil {
		return false, err
	}
	defer d.close()
	for i, op := range row {
		d.quiet = i < len(row)-1
		if err := d.step(op); err != nil {
			return false, fmt.Errorf("replay op %d %v: %w", i, op, err)
		}
	}
	return d.lost, nil
}

// smSeedRun draws and runs one seed's stream of n ops, then enumerates the
// kill points of its first smKillOps, returning the runs expiry dropped; on
// a failure it shrinks the failing op list and reports its replay.
func smSeedRun(t *testing.T, cfg smConfig, ci int, seed int64, n int, tally *smTally) (expired uint64) {
	t.Helper()
	d, err := newSMDriver(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed<<8 | int64(ci)))
	var ops []smOp
	for len(ops) < n && err == nil {
		op := d.next(rng)
		ops = append(ops, op)
		if err = d.do(op); err != nil {
			err = fmt.Errorf("at op %d %v: %w", len(ops)-1, op, err)
		}
	}
	if err == nil {
		err = d.diffAll()
	}
	d.close()
	failing := ops
	if err == nil {
		failing, err = smKillAll(cfg, ops[:min(smKillOps, len(ops))], d.io, tally)
	}
	if err != nil {
		t.Fatalf("%v, seed %d: %v\nreplay: go test ./internal/core -run 'TestStateMachine/%s$' -sm.seed=%d\n%s",
			cfg, seed, err, cfg.combo(), seed, smRow(cfg, smShrink(cfg, failing)))
	}
	return d.expired
}

// smRegressions are shrunk failing streams, replayed on every run with
// every kill point enumerated: defects the driver found, the mutations it
// must keep catching (see CHANGES.md, PR 25), and the crash scenarios the
// driver holds on every run, whatever the seeds draw.
var smRegressions = []struct {
	name, cfg string
	ops       []smOp
}{
	// A whole merge purged the From of a reference on a deleted line whose
	// To, removed in the line's last CP, was still in the write store: the
	// To then answered as an override [0, 5) with the clone's snapshot 3.
	{"lone-from-of-deleted-line", "buffered-delta-full-all-p1", []smOp{
		{opCheckpoint, 0, 0, 0, 0}, {opCheckpoint, 0, 0, 0, 0}, {opSnapshot, 0, 0, 0, 0}, {opClone, 1, 0, 3, 0},
		{opSnapshot, 1, 0, 0, 0}, {opCheckpoint, 0, 0, 0, 0}, {opAdd, 11, 2, 1, 1}, {opCheckpoint, 0, 0, 0, 0},
		{opRemove, 11, 2, 1, 1}, {opDeleteLine, 1, 0, 0, 0}, {opCompact, 0, 0, 0, 0},
	}},
	// A block moved back where it came from shows its old records again
	// (planMove's UndeleteRecord).
	{"move-back", "cponly-delta-full-all-range4", []smOp{
		{opAdd, 3, 3, 0, 0}, {opCheckpoint, 0, 0, 0, 0}, {opRelocate, 3, 7, 0, 0}, {opRelocate, 7, 3, 0, 0},
	}},
	// A clone ends an inherited reference in the CP it was cloned in: the
	// override blocks inheritance (hasOverride) and survives a whole merge.
	{"inherited-remove", "cponly-raw-full-all-range4", []smOp{
		{opAdd, 15, 2, 1, 0}, {opSnapshot, 0, 0, 0, 0}, {opClone, 2, 0, 1, 0}, {opRemove, 15, 2, 1, 2},
		{opCheckpoint, 0, 0, 0, 0}, {opCompact, 0, 0, 0, 0},
	}},
	// A zombie clone base pins the interval covering it through a merge.
	{"zombie-base", "buffered-delta-full-live-range4", []smOp{
		{opCheckpoint, 0, 0, 0, 0}, {opAdd, 13, 1, 1, 0}, {opSnapshot, 0, 0, 0, 0}, {opClone, 1, 0, 2, 0},
		{opCheckpoint, 0, 0, 0, 0}, {opDeleteSnapshot, 0, 2, 0, 0}, {opRemove, 13, 1, 1, 0}, {opCheckpoint, 0, 0, 0, 0},
		{opCompact, 0, 0, 0, 0},
	}},
	// A relocation survives a clean reopen before any checkpoint.
	{"relocation-logged", "buffered-delta-full-all-range4", []smOp{
		{opAdd, 14, 1, 1, 0}, {opRelocate, 14, 0, 0, 0}, {opReopen, 0, 0, 0, 0},
	}},
	// The file system re-drives the updates a crash took back, at the same
	// CP, and the next checkpoint takes them.
	{"crash-redrive", "cponly-delta-full-all-p1", []smOp{
		{opAdd, 1, 1, 0, 0}, {opCheckpoint, 0, 0, 0, 0}, {opAdd, 2, 1, 1, 0}, {opRemove, 1, 1, 0, 0},
		{opCrash, 0, 0, 0, 0}, {opAdd, 2, 1, 1, 0}, {opRemove, 1, 1, 0, 0}, {opCheckpoint, 0, 0, 0, 0},
	}},
	// A Sync log tail holding a remove and a relocation replays after a
	// crash, and again after a second crash with no checkpoint between.
	{"sync-replay-twice", "sync-delta-full-all-p1", []smOp{
		{opAdd, 10, 1, 0, 0}, {opCheckpoint, 0, 0, 0, 0}, {opAdd, 11, 1, 1, 0}, {opRemove, 10, 1, 0, 0},
		{opRelocate, 11, 20, 0, 0}, {opCrash, 0, 0, 0, 0}, {opCrash, 0, 0, 0, 0}, {opCheckpoint, 0, 0, 0, 0},
	}},
	// A merge purges what only the snapshot just deleted retained; the
	// commit that makes it durable carries the catalog without that
	// snapshot, and a crash before that commit finds both as they were.
	{"purge-commits-its-catalog", "cponly-delta-full-all-p1", []smOp{
		{opAdd, 10, 2, 0, 0}, {opSnapshot, 0, 0, 0, 0}, {opCheckpoint, 0, 0, 0, 0}, {opRemove, 10, 2, 0, 0},
		{opAdd, 11, 3, 0, 0}, {opCheckpoint, 0, 0, 0, 0}, {opAdd, 12, 3, 0, 0}, {opCheckpoint, 0, 0, 0, 0},
		{opDeleteSnapshot, 0, 1, 0, 0}, {opMaintain, 0, 0, 0, 0},
	}},
	// Expiry drops a sealed run once its snapshot goes; a crash between the
	// commit and the file's removal leaves the file for Open to collect.
	{"expire-drops-a-run", "cponly-delta-full-live-p1", []smOp{
		{opAdd, 1, 1, 0, 0}, {opSnapshot, 0, 0, 0, 0}, {opCheckpoint, 0, 0, 0, 0}, {opRemove, 1, 1, 0, 0},
		{opCheckpoint, 0, 0, 0, 0}, {opCompact, 0, 0, 0, 0}, {opDeleteSnapshot, 0, 1, 0, 0}, {opExpire, 0, 0, 0, 0},
	}},
}

// TestStateMachine runs the regression rows, then smSeedsPerCombo seeds of
// every mode × format × policy × retention combination; each seed draws its
// partitioning. Every row and the first smKillOps ops of every seed also
// have each of their kill points enumerated. -sm.seed replays one seed,
// -sm.for keeps drawing seeds.
func TestStateMachine(t *testing.T) {
	var tally smTally
	for _, rr := range smRegressions {
		t.Run("regression-"+rr.name, func(t *testing.T) {
			cfg, ok := smConfigNamed(rr.cfg)
			if !ok {
				t.Fatalf("no config %q", rr.cfg)
			}
			io, at, err := smRun(cfg, rr.ops)
			if err != nil {
				t.Fatalf("at op %d: %v", at, err)
			}
			if failing, err := smKillAll(cfg, rr.ops, io, &tally); err != nil {
				t.Fatalf("%v\n%s", err, smRow(cfg, smShrink(cfg, failing)))
			}
		})
	}
	combos := smCombos()
	share := *smFor / time.Duration(len(combos))
	var live, expired int // RetainLive seeds of the default budget; those that expired runs
	for ci, cfg := range combos {
		t.Run(cfg.combo(), func(t *testing.T) {
			start := time.Now()
			for seed := int64(1); seed <= smSeedsPerCombo || time.Since(start) < share; seed++ {
				if *smSeed != 0 {
					seed = *smSeed
				}
				cfg.parts = int(seed % 2)
				n := smSeedRun(t, cfg, ci, seed, 120, &tally)
				if *smSeed != 0 {
					return
				}
				if cfg.retainLive && seed <= smSeedsPerCombo {
					live, expired = live+1, expired+min(int(n), 1)
				}
			}
		})
	}
	t.Logf("expiry dropped runs in %d of %d RetainLive seeds", expired, live)
	t.Logf("kill points per op kind:%v", &tally)
	if live != len(combos)/2*smSeedsPerCombo {
		return // not the default run
	}
	if 2*expired < live {
		t.Errorf("expiry dropped runs in %d of %d RetainLive seeds, want at least half", expired, live)
	}
	for _, k := range []smKind{opCheckpoint, opCompact, opExpire, opReopen} {
		if tally.lost[k] == 0 {
			t.Errorf("no kill point of an %s lost its commit", smKindNames[k])
		}
	}
	if n := tally.committing[opMaintain]; n > 0 {
		t.Errorf("%d kill points of an opMaintain fell in a manifest commit; a maintenance pass commits nothing", n)
	}
}

// hammerSegments is how many checkpoints a paced schedule waits for: a
// worker starts the k-th of this many segments of its stream only once k
// checkpoints have committed, so each of the first ones has records to
// flush however fast the workers run — a merge trigger counts checkpoints,
// not shards — while every segment still races the checkpoint after it.
const hammerSegments = 9

// hammerRow switches the roles of one concurrent schedule on or off.
type hammerRow struct {
	name                 string
	opts                 core.Options
	workers, ops, blocks int    // ingest workers on disjoint inodes, ops each, over blocks
	maxCP                uint64 // their CP tags rise to this; checkpoints start above it
	snaps                []uint64
	paced                bool // workers wait for the checkpointer, segment by segment
	backToBack           bool // no pause between checkpoints
	compactEvery         int  // the checkpointer compacts after every nth CP
	failEvery            int  // every nth checkpoint first fails its flush, then retries
	window               int  // snapshot every CP and keep the newest window of them
	expire               bool // an Expire loop
	maintain             bool // a host goroutine looping MaintainNow
	relocate             int  // a relocator flips this many private blocks, pass by pass
	ranges               bool // the reader runs QueryRange, WSLen and Stats too
	check                func(t *testing.T, h *hammer)
}

// hammer is one concurrent schedule's store and model.
type hammer struct {
	row hammerRow
	fs  *storage.MemFS
	cat *core.MemCatalog
	eng *core.Engine
	m   *model
}

// verify checks every ingest and relocation block against the model.
func (h *hammer) verify(t *testing.T) {
	t.Helper()
	h.m.check(t, h.eng, uint64(h.row.blocks+2*h.row.relocate))
}

// runHammer runs a row's roles until the workers are done, drains the
// write stores, checks the row and every answer against the model, and
// returns the still open store.
func runHammer(t *testing.T, row hammerRow) *hammer {
	t.Helper()
	h := &hammer{row: row, fs: storage.NewMemFS(), cat: core.NewMemCatalog(), m: newModel()}
	opts := row.opts
	opts.VFS, opts.Catalog = h.fs, h.cat
	eng, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	h.eng = eng
	for _, v := range row.snaps {
		h.m.snapshot(0, v)
		if err := h.cat.CreateSnapshot(0, v); err != nil {
			t.Fatal(err)
		}
	}
	var adds uint64
	lo, n := uint64(row.blocks), uint64(row.relocate)
	for i := range n {
		o := refOp{ref: core.Ref{Block: lo + i, Inode: 7777, Offset: i, Length: 1}, cp: 1}
		o.applyTo(eng)
		h.m.apply(o)
		adds++
	}
	if n > 0 {
		fCheckpoint(t, eng, 1)
	}
	streams := hammerStreams(row.workers, row.ops, row.blocks, row.maxCP)
	for _, stream := range streams {
		for _, o := range stream {
			h.m.apply(o)
			if !o.remove {
				adds++
			}
		}
	}

	stop := make(chan struct{})
	running := func() bool {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	}
	errc := make(chan error, 8)
	var roles sync.WaitGroup
	role := func(fn func() error) {
		roles.Add(1)
		go func() {
			defer roles.Done()
			if err := fn(); err != nil {
				errc <- err
			}
		}()
	}
	loop := func(fn func() error) {
		role(func() error {
			for running() {
				if err := fn(); err != nil {
					return err
				}
			}
			return nil
		})
	}

	var (
		mu        sync.Mutex
		committed = sync.NewCond(&mu)
		cps       int // checkpoints committed, hammerSegments once the checkpointer is gone
		lastCP    = row.maxCP + 1
		window    []uint64
	)
	role(func() error {
		defer func() {
			mu.Lock()
			cps = hammerSegments
			mu.Unlock()
			committed.Broadcast()
		}()
		for cp := row.maxCP + 2; running(); cp++ {
			retry := true
			if row.failEvery > 0 && int(cp)%row.failEvery == 0 {
				// Fail somewhere inside the flush: the frozen records go back
				// to the write stores, and the retry must see them all. A
				// flush of empty write stores writes no page and commits.
				h.fs.SetFailurePlan(storage.FailurePlan{Hook: failCheckpointWrites(nil)})
				retry = eng.Checkpoint(cp) != nil
				h.fs.SetFailurePlan(storage.FailurePlan{})
			}
			if retry {
				if err := eng.Checkpoint(cp); err != nil {
					return fmt.Errorf("checkpoint %d: %w", cp, err)
				}
			}
			if row.window > 0 {
				if err := h.cat.CreateSnapshot(0, cp); err != nil {
					return err
				}
				if window = append(window, cp); len(window) > row.window {
					if err := h.cat.DeleteSnapshot(0, window[0]); err != nil {
						return err
					}
					window = window[1:]
				}
			}
			if row.compactEvery > 0 && int(cp)%row.compactEvery == 0 {
				if err := eng.Compact(); err != nil {
					return fmt.Errorf("compact at %d: %w", cp, err)
				}
			}
			mu.Lock()
			lastCP, cps = cp, cps+1
			mu.Unlock()
			committed.Broadcast()
			if !row.backToBack {
				time.Sleep(time.Millisecond)
			}
		}
		return nil
	})
	if row.expire {
		loop(func() error {
			time.Sleep(time.Millisecond)
			_, err := eng.Expire()
			return err
		})
	}
	if row.maintain {
		loop(func() error {
			time.Sleep(time.Millisecond)
			return eng.MaintainNow()
		})
	}
	passes := 0
	if n > 0 {
		role(func() error {
			for ; passes == 0 || running(); passes++ { // a whole pass at least
				for i := range n {
					from, to := lo+i, lo+n+i
					if passes%2 == 1 {
						from, to = to, from
					}
					if err := eng.RelocateBlock(from, to); err != nil {
						return err
					}
				}
			}
			return nil
		})
	}
	rng := rand.New(rand.NewSource(7))
	loop(func() error {
		b := uint64(rng.Intn(row.blocks + 2*row.relocate))
		if _, err := eng.Query(b); err != nil || !row.ranges {
			return err
		}
		_, _ = eng.WSLen(), eng.Stats()
		return eng.QueryRange(b, 4, func(uint64, []core.Owner) bool { return true })
	})

	var workers sync.WaitGroup
	for _, stream := range streams {
		workers.Add(1)
		go func() {
			defer workers.Done()
			for k := range hammerSegments {
				if row.paced {
					mu.Lock()
					for cps < k {
						committed.Wait()
					}
					mu.Unlock()
				}
				for _, o := range stream[k*len(stream)/hammerSegments : (k+1)*len(stream)/hammerSegments] {
					o.applyTo(eng)
				}
			}
		}()
	}
	workers.Wait()
	close(stop)
	roles.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	fCheckpoint(t, eng, lastCP+1)
	if got := eng.WSLen(); got != 0 {
		t.Fatalf("WSLen = %d after the final checkpoint", got)
	}
	if st := eng.Stats(); st.RefsAdded != adds {
		t.Fatalf("RefsAdded = %d, the schedule added %d", st.RefsAdded, adds)
	}
	for _, v := range window {
		h.m.snapshot(0, v)
	}
	if passes%2 == 1 {
		for i := range n {
			h.m.relocate(lo+i, lo+n+i)
		}
	}
	if row.check != nil {
		row.check(t, h)
	}
	h.verify(t)
	return h
}

// hammerRows are the concurrent schedules. The checks every row gets —
// nothing buffered after the drain, every AddRef counted once, every block
// answering like the model (a relocated-away block with nothing) — are
// runHammer's; a row's check adds what its roles are for.
var hammerRows = []hammerRow{
	// Eight workers into eight shards against a paused checkpointer that
	// compacts, every CP version of line 0 retained.
	{name: "ingest", opts: core.Options{WriteShards: 8}, workers: 8, ops: 1500, blocks: 512, maxCP: 16,
		snaps: []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}, compactEvery: 8},
	// Every public entry point at once: back-to-back checkpoints and
	// compactions, relocation back and forth, point and range queries.
	{name: "mixed", workers: 4, ops: 800, blocks: 256, maxCP: 8, snaps: []uint64{5},
		backToBack: true, compactEvery: 6, relocate: 64, ranges: true},
	// A host goroutine's maintenance passes merging under paced ingest.
	{name: "maintain", opts: core.Options{Partitions: 8, PartitionSpan: 384 / 8, WriteShards: 6,
		CompactionPolicy: core.PolicyFullAt{Threshold: 4}},
		workers: 6, ops: 1200, blocks: 384, maxCP: 12, paced: true, maintain: true,
		check: func(t *testing.T, h *hammer) {
			maintainDrained(t, h.eng)
			if ms := h.eng.MaintenanceStats(); ms.AutoCompactions == 0 {
				t.Fatalf("maintenance passes never compacted: %+v", ms)
			}
		}},
	// Leveled merging and expiry under a moving snapshot window.
	{name: "leveled", opts: core.Options{Partitions: 8, PartitionSpan: 384 / 8, WriteShards: 6,
		Retention: core.RetainLive, CompactionPolicy: core.PolicyLeveled{}, Fanout: 3},
		workers: 6, ops: 1000, blocks: 384, maxCP: 12, paced: true, window: 4, maintain: true,
		check: func(t *testing.T, h *hammer) {
			maintainDrained(t, h.eng)
			if ms := h.eng.MaintenanceStats(); ms.Policy != "leveled" || ms.Fanout != 3 || ms.AutoCompactions == 0 {
				t.Fatalf("leveled maintenance: %+v, want policy leveled, fanout 3 and merges", ms)
			}
		}},
	// An Expire loop racing tiered merges of maintenance passes and a
	// snapshot window; then every snapshot goes and nothing sealed may
	// survive.
	{name: "expire", opts: core.Options{Partitions: 4, PartitionSpan: 256 / 4, WriteShards: 4,
		CompactionPolicy: core.PolicyFullAt{Threshold: 4}, Retention: core.RetainLive},
		workers: 4, ops: 800, blocks: 256, maxCP: 10, paced: true, window: 3, expire: true, maintain: true,
		check: func(t *testing.T, h *hammer) {
			maintainDrained(t, h.eng)
			h.verify(t)
			for _, v := range slices.Sorted(maps.Keys(h.m.lines[0].snaps)) {
				delete(h.m.lines[0].snaps, v)
				if err := h.cat.DeleteSnapshot(0, v); err != nil {
					t.Fatal(err)
				}
			}
			if err := h.eng.Compact(); err != nil {
				t.Fatal(err)
			}
			if _, err := h.eng.Expire(); err != nil {
				t.Fatal(err)
			}
			if left := sealedRuns(h.eng); len(left) != 0 {
				t.Fatalf("%d sealed runs survive an Infinity horizon: %+v", len(left), left)
			}
		}},
	// Back-to-back checkpoints, every seventh failing its flush first,
	// against ingest, a relocation pass and queries over both ranges.
	{name: "checkpoint", workers: 6, ops: 1200, blocks: 384, maxCP: 12, backToBack: true, failEvery: 7, relocate: 48},
}

// TestStateMachineConcurrent runs every concurrent schedule; run it under
// -race.
func TestStateMachineConcurrent(t *testing.T) {
	for _, row := range hammerRows {
		t.Run(row.name, func(t *testing.T) {
			if err := runHammer(t, row).eng.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestIOAttributionRaceExactSums runs a concurrent schedule — ingest into
// a Buffered log, checkpoints with compactions, an Expire loop, queries —
// then closes the store and checks the attribution contract against the
// metered MemFS: every device byte is attributed to a source — per-source
// sums equal the device totals exactly, and nothing leaks into "unknown".
func TestIOAttributionRaceExactSums(t *testing.T) {
	// Buffered durability journals every update, so the WAL source carries
	// traffic too (the default checkpoint-only mode opens no writing log).
	h := runHammer(t, hammerRow{
		opts:    core.Options{WriteShards: 4, Retention: core.RetainLive, Durability: wal.Buffered},
		workers: 4, ops: 2000, blocks: 256, maxCP: 8, compactEvery: 4, expire: true,
	})
	eng, fs := h.eng, h.fs
	// A deterministic tail so every subsystem has certainly run at least once
	// regardless of how far the schedule got: merge and expire.
	if err := eng.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Expire(); err != nil {
		t.Fatal(err)
	}

	// Quiesce before comparing: Close commits and flushes, and everything
	// it writes is itself attributed.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	sum := func(rep core.IOReport) (total, unknown obs.SourceIO) {
		for _, s := range rep.Sources {
			total.ReadBytes += s.ReadBytes
			total.WriteBytes += s.WriteBytes
			total.Syncs += s.Syncs
			total.Creates += s.Creates
			total.Removes += s.Removes
			if s.Source == storage.SrcUnknown.String() {
				unknown = s
			}
		}
		return total, unknown
	}
	rep := eng.IOReport()
	st := fs.Stats()
	total, unknown := sum(rep)
	if total.ReadBytes != uint64(st.BytesRead) || total.WriteBytes != uint64(st.BytesWritten) {
		t.Errorf("attributed bytes = %d read / %d written, device = %d / %d",
			total.ReadBytes, total.WriteBytes, st.BytesRead, st.BytesWritten)
	}
	if total.ReadBytes != rep.TotalReadBytes || total.WriteBytes != rep.TotalWriteBytes {
		t.Errorf("report totals %d/%d disagree with per-source sums %d/%d",
			rep.TotalReadBytes, rep.TotalWriteBytes, total.ReadBytes, total.WriteBytes)
	}
	if total.Syncs != uint64(st.Syncs) || total.Creates != uint64(st.FilesCreated) || total.Removes != uint64(st.FilesRemoved) {
		t.Errorf("attributed syncs/creates/removes = %d/%d/%d, device = %d/%d/%d",
			total.Syncs, total.Creates, total.Removes, st.Syncs, st.FilesCreated, st.FilesRemoved)
	}
	if unknown.ReadBytes != 0 || unknown.WriteBytes != 0 || unknown.Syncs != 0 ||
		unknown.Creates != 0 || unknown.Removes != 0 {
		t.Errorf("unattributed i/o leaked from a hot path: %+v", unknown)
	}
	for _, src := range []storage.Source{storage.SrcWAL, storage.SrcCheckpoint, storage.SrcCompaction} {
		if rep.Sources[src].WriteBytes == 0 {
			t.Errorf("no write bytes attributed to %s under a write-heavy workload", src)
		}
	}
	if rep.Sources[storage.SrcManifest].WriteBytes == 0 {
		t.Error("no manifest bytes attributed despite committed checkpoints")
	}
	if n := rep.Sources[storage.SrcCheckpoint].ReadBytes; n != 0 {
		t.Errorf("checkpoints read %d bytes: an install opens the runs it built from their builders, not from their header pages", n)
	}

	// Reopen the same directory with a fresh accountant: startup I/O
	// (manifest, deletion vectors, run headers, WAL scan) lands under
	// recovery, and the exact-sum contract holds for the delta too.
	pre := fs.Stats()
	eng2, err := core.Open(core.Options{VFS: fs, Catalog: h.cat, WriteShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.Query(1); err != nil {
		t.Fatal(err)
	}
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}
	rep2 := eng2.IOReport()
	delta := fs.Stats().Sub(pre)
	total2, unknown2 := sum(rep2)
	if total2.ReadBytes != uint64(delta.BytesRead) || total2.WriteBytes != uint64(delta.BytesWritten) {
		t.Errorf("reopen attributed %d/%d bytes, device delta %d/%d",
			total2.ReadBytes, total2.WriteBytes, delta.BytesRead, delta.BytesWritten)
	}
	if rep2.Sources[storage.SrcRecovery].ReadBytes == 0 {
		t.Error("no read bytes attributed to recovery on reopen of a populated store")
	}
	if unknown2.ReadBytes != 0 || unknown2.WriteBytes != 0 {
		t.Errorf("unattributed i/o leaked during recovery: %+v", unknown2)
	}
}
