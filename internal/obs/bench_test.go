package obs

import (
	"testing"
	"time"
)

// BenchmarkMetricsOverhead measures the per-operation cost of the record
// path in both states the engine can be in: disabled (nil handles — the
// cost every un-instrumented run pays) and enabled (a live histogram).
// The disabled case must stay in the low single-digit nanoseconds; CI runs
// this as a bench-smoke.
func BenchmarkMetricsOverhead(b *testing.B) {
	b.Run("disabled-nil-histogram", func(b *testing.B) {
		var h *Histogram
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(uint64(i))
		}
	})
	b.Run("enabled-observe", func(b *testing.B) {
		h := newHistogram("h", "", "ns", LatencyBuckets())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(uint64(i))
		}
	})
	b.Run("enabled-observe-parallel", func(b *testing.B) {
		h := newHistogram("h", "", "ns", LatencyBuckets())
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			var i uint64
			for pb.Next() {
				i++
				h.Observe(i)
			}
		})
	})
	b.Run("enabled-timed-observe", func(b *testing.B) {
		// The full cost an instrumented hot path pays when enabled: two
		// clock reads plus the observe.
		h := newHistogram("h", "", "ns", LatencyBuckets())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			start := time.Now()
			h.ObserveDuration(time.Since(start))
		}
	})
}

func BenchmarkSlowLogOpEnd(b *testing.B) {
	b.Run("below-threshold", func(b *testing.B) {
		s := NewSlowLog(time.Hour, 128)
		ev := OpEvent{Kind: OpAddRef, Dur: time.Microsecond}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.OpEnd(ev)
		}
	})
	b.Run("retained", func(b *testing.B) {
		s := NewSlowLog(0, 128)
		ev := OpEvent{Kind: OpAddRef, Dur: time.Microsecond}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.OpEnd(ev)
		}
	})
}
