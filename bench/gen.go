package main

import (
	"math"

	"github.com/backlogfs/backlog"
)

// op is one generated block operation: AddRef, or RemoveRef of a
// reference that is live at that point of the stream.
type op struct {
	ref    backlog.Ref
	remove bool
}

// owner is the identity the oracle compares: everything in a Ref but the
// block it is filed under.
type owner struct{ inode, offset, line, length uint64 }

// rng is splitmix64: a few arithmetic ops per draw, no allocation, and
// the same stream for the same seed on every Go version.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform draw from [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform draw from [0, n).
func (r *rng) intn(n int) int { return int(r.float() * float64(n)) }

// zipf draws ranks in [0, n) with P(rank i) proportional to 1/(i+1)^theta
// (Gray et al.'s rejection-free method, as in YCSB). theta 0 is uniform;
// theta must not be 1.
type zipf struct {
	n                        float64
	theta, alpha, zetan, eta float64
	second                   float64
}

func newZipf(n uint64, theta float64) zipf {
	z := zipf{n: float64(n), theta: theta}
	if theta == 0 {
		return z
	}
	for i := uint64(1); i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), theta)
	}
	z.second = math.Pow(0.5, theta)
	z.alpha = 1 / (1 - theta)
	z.eta = (1 - math.Pow(2/z.n, 1-theta)) / (1 - (1+z.second)/z.zetan)
	return z
}

func (z *zipf) rank(u float64) uint64 {
	if z.theta == 0 {
		return uint64(u * z.n)
	}
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.second {
		return 1
	}
	r := uint64(z.n * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= uint64(z.n) {
		r = uint64(z.n) - 1
	}
	return r
}

// genParams shapes the op stream; every workload shares the generator and
// differs only in these.
type genParams struct {
	blocks      uint64  // block space, a power of two
	theta       float64 // skew of block popularity among AddRefs
	removeShare float64 // share of ops that are RemoveRef of a live ref
	churnShare  float64 // share of adds removed again within the same CP
	audited     int     // blocks whose owner sets the oracle tracks
	ops         int     // length of the stream: AddRef blocks are drawn for all of it up front
}

// generator produces the seeded op stream and keeps the oracle: for each
// audited block, the exact set of owners that are live after every op
// generated so far.
type generator struct {
	p        genParams
	rnd      rng
	pop      zipf
	mul, off uint64 // rank -> block scramble, so popular blocks are spread out
	seq      uint64 // next owner identity; identities are never reused
	// draws holds the popularity draw of every AddRef the stream can make.
	// Drawing is the generator's arithmetic-heavy part (a pow per draw); it
	// happens here, at set-up, so that filling a CP between two timed
	// phases is cheap.
	draws []uint32

	live    []backlog.Ref // every live reference, for picking removals
	pending []backlog.Ref // same-CP churn: added this CP, removal still owed

	auditBits []uint64 // bitset over the block space: is the block audited
	audit     map[uint64]map[owner]struct{}
	auditList []uint64
}

func newGenerator(seed uint64, p genParams) *generator {
	g := &generator{
		p:         p,
		rnd:       rng(seed),
		pop:       newZipf(p.blocks, p.theta),
		auditBits: make([]uint64, (p.blocks+63)/64),
		audit:     make(map[uint64]map[owner]struct{}, p.audited),
	}
	g.mul = g.rnd.next() | 1 // odd, so multiplication permutes a power-of-two space
	g.off = g.rnd.next()
	g.draws = make([]uint32, p.ops)
	for i := range g.draws {
		g.draws[i] = uint32(g.block())
	}
	// Audited blocks follow the stream's own popularity, so the oracle
	// covers hot blocks with many owners and, through the long tail, cold
	// ones with few or none.
	for len(g.auditList) < p.audited {
		b := g.block()
		if g.audited(b) {
			continue
		}
		g.auditBits[b/64] |= 1 << (b % 64)
		g.audit[b] = make(map[owner]struct{})
		g.auditList = append(g.auditList, b)
	}
	return g
}

func (g *generator) block() uint64 {
	return (g.pop.rank(g.rnd.float())*g.mul + g.off) & (g.p.blocks - 1)
}

func (g *generator) audited(b uint64) bool { return g.auditBits[b/64]&(1<<(b%64)) != 0 }

func ownerOf(r backlog.Ref) owner { return owner{r.Inode, r.Offset, r.Line, r.Length} }

// emitAdd generates an AddRef; churn says whether the CP has room left to
// remove the reference again.
func (g *generator) emitAdd(churn bool) op {
	// 64-block files on line 0: identities are unique for the whole stream.
	r := backlog.Ref{Block: uint64(g.draws[g.seq]), Inode: 1 + g.seq>>6, Offset: g.seq & 63, Length: 1}
	g.seq++
	if g.audited(r.Block) {
		g.audit[r.Block][ownerOf(r)] = struct{}{}
	}
	if churn && g.rnd.float() < g.p.churnShare {
		g.pending = append(g.pending, r)
	} else {
		g.live = append(g.live, r)
	}
	return op{ref: r}
}

func (g *generator) emitRemove(r backlog.Ref) op {
	if g.audited(r.Block) {
		delete(g.audit[r.Block], ownerOf(r))
	}
	return op{ref: r, remove: true}
}

func (g *generator) popPending() backlog.Ref {
	r := g.pending[len(g.pending)-1]
	g.pending = g.pending[:len(g.pending)-1]
	return r
}

// fillCP overwrites buf with the next consistency point's ops. Every
// churned add is removed again before buf ends, so the engine's proactive
// pruning sees both halves within one CP.
func (g *generator) fillCP(buf []op) {
	for i := range buf {
		left := len(buf) - i
		switch {
		case len(g.pending) >= left:
			buf[i] = g.emitRemove(g.popPending())
		case g.rnd.float() >= g.p.removeShare:
			buf[i] = g.emitAdd(len(g.pending)+1 < left)
		case len(g.pending) > 0:
			buf[i] = g.emitRemove(g.popPending())
		case len(g.live) > 0:
			j := g.rnd.intn(len(g.live))
			r := g.live[j]
			g.live[j] = g.live[len(g.live)-1]
			g.live = g.live[:len(g.live)-1]
			buf[i] = g.emitRemove(r)
		default:
			buf[i] = g.emitAdd(len(g.pending)+1 < left)
		}
	}
}

// liveRefs is the number of references live after the ops generated so far.
func (g *generator) liveRefs() int { return len(g.live) + len(g.pending) }

// check reports whether a Query result for an audited block carries
// exactly the generator's live owner set as its Live owners.
func (g *generator) check(block uint64, owners []backlog.Owner) bool {
	want := g.audit[block]
	n := 0
	for _, o := range owners {
		if !o.Live {
			continue
		}
		if _, ok := want[owner{o.Inode, o.Offset, o.Line, o.Length}]; !ok {
			return false
		}
		n++
	}
	return n == len(want)
}
