package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// OpKind identifies an instrumented engine operation in trace events.
type OpKind int

const (
	OpAddRef OpKind = iota
	OpRemoveRef
	OpQuery
	OpQueryRange
	OpRelocate
	OpCheckpoint
	OpCompact
	OpExpire
)

func (k OpKind) String() string {
	switch k {
	case OpAddRef:
		return "addref"
	case OpRemoveRef:
		return "removeref"
	case OpQuery:
		return "query"
	case OpQueryRange:
		return "queryrange"
	case OpRelocate:
		return "relocate"
	case OpCheckpoint:
		return "checkpoint"
	case OpCompact:
		return "compact"
	case OpExpire:
		return "expire"
	default:
		return "unknown"
	}
}

// OpEvent describes one instrumented operation. Start events carry a zero
// Dur and nil Err; end events carry the measured duration and the
// operation's error, if any. Block is the physical block an op addressed
// (0 for whole-database ops), Shard the write-store shard it routed to
// (-1 when not applicable), and CP the consistency-point tag.
type OpEvent struct {
	Kind  OpKind
	Shard int
	CP    uint64
	Block uint64
	Start time.Time
	Dur   time.Duration
	Err   error

	// ReadBytes and WriteBytes are the device bytes the op's subsystem
	// moved while the op ran (end events only; zero without I/O
	// attribution). They are per-source global deltas, not per-goroutine
	// ones: concurrent ops of the same source each see the sum of what ran
	// during their window, which is still enough to tell an I/O-bound slow
	// op from a compute-bound one.
	ReadBytes  uint64
	WriteBytes uint64
}

// Tracer receives operation start/end events from an instrumented engine.
// Implementations must be safe for concurrent use and should return
// quickly: both hooks run inline on the operation's goroutine (a slow
// tracer slows the database, by design — it is a debugging surface, not a
// sampling profiler). Register one via backlog.Config.Tracer.
type Tracer interface {
	// OpStart is invoked when an operation begins. ev.Dur is zero and
	// ev.Err nil.
	OpStart(ev OpEvent)
	// OpEnd is invoked when the operation completes.
	OpEnd(ev OpEvent)
}

// SlowLog is the built-in slow-op log: the engine hands it every end event,
// and those whose duration meets the threshold are retained in a bounded
// ring buffer, newest overwriting oldest, so memory stays fixed no matter
// how many ops exceed the threshold. Safe for concurrent recording and
// concurrent Snapshot readers.
type SlowLog struct {
	threshold time.Duration // ops at or above are retained
	total     atomic.Uint64

	mu   sync.Mutex
	ring []OpEvent
	next int
	full bool
}

// DefaultSlowLogSize is the ring capacity when none is given.
const DefaultSlowLogSize = 128

// NewSlowLog returns a slow-op log retaining ops with Dur >= threshold in
// a ring of the given capacity (DefaultSlowLogSize if <= 0). A zero
// threshold retains every traced op — useful in tests; production callers
// set a threshold well above their p99.
func NewSlowLog(threshold time.Duration, capacity int) *SlowLog {
	if capacity <= 0 {
		capacity = DefaultSlowLogSize
	}
	return &SlowLog{threshold: threshold, ring: make([]OpEvent, capacity)}
}

// OpEnd retains the end event if it meets the threshold.
func (s *SlowLog) OpEnd(ev OpEvent) {
	if ev.Dur < s.threshold {
		return
	}
	s.total.Add(1)
	s.mu.Lock()
	s.ring[s.next] = ev
	s.next++
	if s.next == len(s.ring) {
		s.next = 0
		s.full = true
	}
	s.mu.Unlock()
}

// Threshold returns the retention threshold.
func (s *SlowLog) Threshold() time.Duration { return s.threshold }

// Total returns how many ops ever met the threshold (including ones the
// ring has since overwritten).
func (s *SlowLog) Total() uint64 { return s.total.Load() }

// Snapshot returns the retained events, oldest first. The slice is a
// copy; concurrent recording never mutates it.
func (s *SlowLog) Snapshot() []OpEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []OpEvent
	if s.full {
		out = make([]OpEvent, 0, len(s.ring))
		out = append(out, s.ring[s.next:]...)
		out = append(out, s.ring[:s.next]...)
	} else {
		out = append(out, s.ring[:s.next]...)
	}
	return out
}
