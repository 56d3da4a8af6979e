package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/backlogfs/backlog"
)

// spanKind names a span. The first block is the benchmark's own spans
// around public API calls; the second is the engine's trace events, which
// become their children.
type spanKind uint8

const (
	spNone spanKind = iota
	spAddRef
	spRemoveRef
	spQuery
	spQueryRange
	spCheckpoint
	spMaintain
	spOpen
	spClose
	spEngine // spEngine+OpKind is the engine event of that kind
)

var benchSpanNames = [...]string{"", "bench.addref", "bench.removeref", "bench.query",
	"bench.queryrange", "bench.checkpoint", "bench.maintain", "bench.open", "bench.close"}

func (k spanKind) String() string {
	if k >= spEngine {
		return "core." + backlog.OpKind(k-spEngine).String()
	}
	return benchSpanNames[k]
}

// span is one recorded interval. parent indexes the same buffer (-1 for
// none); op is shared by a benchmark call and the engine events it caused.
type span struct {
	start  int64 // ns since the recorder's epoch
	dur    int64
	op     uint32
	parent int32
	kind   spanKind
}

// spanBuf is an append-only span list with at most one open benchmark
// span, which engine events that arrive meanwhile take as their parent.
type spanBuf struct {
	spans []span
	open  int32 // index of the open benchmark span, -1 when none
	ops   uint32
}

func (b *spanBuf) begin(k spanKind, start int64) {
	b.ops++
	b.open = int32(len(b.spans))
	b.spans = append(b.spans, span{start: start, op: b.ops, parent: -1, kind: k})
}

func (b *spanBuf) end(dur time.Duration) {
	b.spans[b.open].dur = int64(dur)
	b.open = -1
}

func (b *spanBuf) child(k spanKind, start, dur int64) {
	s := span{start: start, dur: dur, parent: b.open, kind: k}
	if b.open >= 0 {
		s.op = b.spans[b.open].op
	}
	b.spans = append(b.spans, s)
}

// recorder is the benchmark's in-memory span recorder and the
// backlog.Tracer the traced run registers.
//
// Per-block calls (updates, queries) are recorded without locks: each
// closed-loop client owns a buffer, and because the engine runs tracer
// hooks inline on the calling goroutine, the engine event for a block
// lands in the buffer of the client that currently has a call of that
// kind open on that block — clients never share a block within a phase.
// Whole-database operations (checkpoint, maintenance, open, close) and
// anything a background goroutine emits are rare and share one
// mutex-guarded buffer. A background expiry that happens to run inside
// the writer's Maintain span is attributed to it; that is the one
// imprecision.
type recorder struct {
	epoch   time.Time
	clients []spanBuf
	cur     []atomic.Uint64 // per client: packed (kind, block) of its open call, 0 when idle

	mu      sync.Mutex
	control spanBuf
}

func newRecorder(clients int) *recorder {
	r := &recorder{epoch: time.Now(), clients: make([]spanBuf, clients), cur: make([]atomic.Uint64, clients)}
	r.reset()
	return r
}

// reset drops every span but keeps the buffers' capacity.
func (r *recorder) reset() {
	for i := range r.clients {
		r.clients[i] = spanBuf{spans: r.clients[i].spans[:0], open: -1}
	}
	r.control = spanBuf{spans: r.control.spans[:0], open: -1}
}

func callKey(k spanKind, block uint64) uint64 { return uint64(k)<<56 | (block + 1) }

// begin opens client c's span around a per-block public call.
func (r *recorder) begin(c int, k spanKind, block uint64, now time.Time) {
	r.clients[c].begin(k, int64(now.Sub(r.epoch)))
	r.cur[c].Store(callKey(k, block))
}

func (r *recorder) end(c int, dur time.Duration) {
	r.cur[c].Store(0)
	r.clients[c].end(dur)
}

// beginControl opens a span around a whole-database call; only one
// goroutine makes those at a time.
func (r *recorder) beginControl(k spanKind, now time.Time) {
	r.mu.Lock()
	r.control.begin(k, int64(now.Sub(r.epoch)))
	r.mu.Unlock()
}

func (r *recorder) endControl(dur time.Duration) {
	r.mu.Lock()
	r.control.end(dur)
	r.mu.Unlock()
}

// OpStart implements backlog.Tracer; end events carry the start time, so
// nothing is recorded here.
func (r *recorder) OpStart(backlog.OpEvent) {}

// OpEnd implements backlog.Tracer.
func (r *recorder) OpEnd(ev backlog.OpEvent) {
	start, dur := int64(ev.Start.Sub(r.epoch)), int64(ev.Dur)
	var call spanKind
	switch ev.Kind {
	case backlog.OpAddRef:
		call = spAddRef
	case backlog.OpRemoveRef:
		call = spRemoveRef
	case backlog.OpQuery:
		call = spQuery
	case backlog.OpQueryRange:
		call = spQueryRange
	}
	if call != spNone {
		key := callKey(call, ev.Block)
		for c := range r.cur {
			if r.cur[c].Load() == key {
				r.clients[c].child(spEngine+spanKind(ev.Kind), start, dur)
				return
			}
		}
	}
	r.mu.Lock()
	r.control.child(spEngine+spanKind(ev.Kind), start, dur)
	r.mu.Unlock()
}

// controlSelfTimes returns, per kind of whole-database span, each span's
// self time: its duration minus the part its child spans cover. Children
// of one parent never overlap here (the engine emits them sequentially on
// the caller's goroutine), so the covered part is their summed duration.
func (r *recorder) controlSelfTimes() map[spanKind][]float64 {
	spans := r.control.spans
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			covered[s.parent] += s.dur
		}
	}
	out := map[spanKind][]float64{}
	for i, s := range spans {
		out[s.kind] = append(out[s.kind], float64(max(s.dur-covered[i], 0)))
	}
	return out
}

// write dumps every span as one JSON object per line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		ID     int    `json:"id"`
		Parent int    `json:"parent"` // -1 for none
		Op     uint32 `json:"op"`
		Client int    `json:"client"` // -1 for the shared control buffer
		Name   string `json:"name"`
		Start  int64  `json:"start_ns"`
		Dur    int64  `json:"dur_ns"`
	}
	base := 0
	dump := func(b *spanBuf, client int) error {
		for i, s := range b.spans {
			parent := -1
			if s.parent >= 0 {
				parent = base + int(s.parent)
			}
			if err := enc.Encode(line{base + i, parent, s.op, client, s.kind.String(), s.start, s.dur}); err != nil {
				return err
			}
		}
		base += len(b.spans)
		return nil
	}
	for i := range r.clients {
		if err = dump(&r.clients[i], i); err != nil {
			break
		}
	}
	if err == nil {
		err = dump(&r.control, -1)
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
