// Package workload generates the two workloads of the paper's fsim
// evaluation (Section 6): a synthetic stochastic workload that issues
// writes as fast as possible, and a synthesized NFS trace with the
// published properties of the EECS03 data set (the original trace is not
// redistributable; see DESIGN.md for the substitution argument).
package workload

import (
	"fmt"
	"math/rand"
	"sort"

	"github.com/backlogfs/backlog/internal/fsim"
)

// SyntheticConfig parameterizes the synthetic generator (Section 6.2.1).
// The defaults mirror the paper: ≥32,000 block writes between consistency
// points, file operation rates mirroring the EECS03 trace, 90% small
// files, and roughly 7 writable-clone creations per 100 CPs.
type SyntheticConfig struct {
	// OpsPerCP is the number of block operations to issue per CP
	// (the paper uses 32,000; benchmarks scale this down).
	OpsPerCP int
	// SmallFileFrac is the fraction of created files that are small
	// (default 0.90).
	SmallFileFrac float64
	// SmallFileBlocks and LargeFileBlocks bound the uniform size ranges
	// (in blocks) for small and large files.
	SmallFileBlocks [2]int
	LargeFileBlocks [2]int
	// CreateFrac / DeleteFrac / UpdateFrac weight the file operation mix
	// (update = overwrite of existing file blocks). They need not sum to
	// one; they are normalized.
	CreateFrac float64
	DeleteFrac float64
	UpdateFrac float64
	// ClonesPer100CP is the expected number of writable clone creations
	// per 100 checkpoints (paper: ≈7). Each clone receives a burst of
	// writes and is destroyed after CloneLifetimeCPs.
	ClonesPer100CP  float64
	CloneLifetimeCP int
	// Snapshots configures hourly/nightly-style snapshot rotation.
	Snapshots RotationConfig
	// Seed makes the generator deterministic.
	Seed int64
}

// DefaultSyntheticConfig returns the paper-mirroring configuration scaled
// by opsPerCP.
func DefaultSyntheticConfig(opsPerCP int) SyntheticConfig {
	return SyntheticConfig{
		OpsPerCP:        opsPerCP,
		SmallFileFrac:   0.90,
		SmallFileBlocks: [2]int{1, 16},
		LargeFileBlocks: [2]int{32, 512},
		CreateFrac:      0.35,
		DeleteFrac:      0.25,
		UpdateFrac:      0.40,
		ClonesPer100CP:  7,
		CloneLifetimeCP: 20,
		Snapshots:       DefaultRotation(),
		Seed:            1,
	}
}

// RotationConfig emulates the paper's "four hourly and four nightly
// snapshots" retention policy, expressed in CPs.
type RotationConfig struct {
	// HourlyEveryCPs takes an "hourly" snapshot every N checkpoints
	// (0 disables).
	HourlyEveryCPs int
	// HourlyKeep is the number of hourly snapshots retained.
	HourlyKeep int
	// NightlyEveryHours promotes every Nth hourly snapshot to "nightly".
	NightlyEveryHours int
	// NightlyKeep is the number of nightly snapshots retained.
	NightlyKeep int
}

// DefaultRotation keeps 4 hourly + 4 nightly snapshots with an "hour" of
// 10 CPs (scaled down from WAFL's hourly schedule).
func DefaultRotation() RotationConfig {
	return RotationConfig{HourlyEveryCPs: 10, HourlyKeep: 4, NightlyEveryHours: 8, NightlyKeep: 4}
}

// Rotation tracks retained snapshots for one line.
type Rotation struct {
	cfg     RotationConfig
	line    uint64
	hourly  []uint64 // retained hourly snapshot versions
	nightly []uint64
	hours   int // hourly snapshots taken so far
}

// NewRotation returns a rotation manager for a line.
func NewRotation(cfg RotationConfig, line uint64) *Rotation {
	return &Rotation{cfg: cfg, line: line}
}

// Retained returns all currently retained snapshot versions, ascending.
// A snapshot can be both hourly and nightly; it is listed once.
func (r *Rotation) Retained() []uint64 {
	seen := map[uint64]bool{}
	var out []uint64
	for _, v := range append(append([]uint64(nil), r.hourly...), r.nightly...) {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Tick runs the schedule for the checkpoint that is about to be taken
// (cpIndex counts from 1). It must be called after the CP's mutations and
// before fs.Checkpoint. Expired snapshots are deleted; a new snapshot is
// taken when due.
func (r *Rotation) Tick(fs *fsim.FS, cpIndex uint64) error {
	if r.cfg.HourlyEveryCPs == 0 || cpIndex%uint64(r.cfg.HourlyEveryCPs) != 0 {
		return nil
	}
	v, err := fs.TakeSnapshot(r.line)
	if err != nil {
		return fmt.Errorf("workload: rotation snapshot: %w", err)
	}
	r.hours++
	r.hourly = append(r.hourly, v)
	promote := r.cfg.NightlyEveryHours > 0 && r.hours%r.cfg.NightlyEveryHours == 0
	if promote {
		r.nightly = append(r.nightly, v)
	}
	if len(r.hourly) > r.cfg.HourlyKeep {
		old := r.hourly[0]
		r.hourly = r.hourly[1:]
		if !contains(r.nightly, old) {
			if err := fs.DeleteSnapshot(r.line, old); err != nil {
				return err
			}
		}
	}
	if len(r.nightly) > r.cfg.NightlyKeep {
		old := r.nightly[0]
		r.nightly = r.nightly[1:]
		if !contains(r.hourly, old) {
			if err := fs.DeleteSnapshot(r.line, old); err != nil {
				return err
			}
		}
	}
	return nil
}

func contains(s []uint64, v uint64) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// Synthetic drives an fsim.FS with the stochastic workload.
type Synthetic struct {
	cfg SyntheticConfig
	fs  *fsim.FS
	rng *rand.Rand

	rotation *Rotation
	files    []fileRef // files of line 0 eligible for update/delete
	clones   []cloneRef
	cpIndex  uint64
}

type fileRef struct {
	ino  uint64
	size int
}

type cloneRef struct {
	line     uint64
	expireCP uint64
}

// NewSynthetic builds a generator over fs.
func NewSynthetic(fs *fsim.FS, cfg SyntheticConfig) *Synthetic {
	return &Synthetic{
		cfg:      cfg,
		fs:       fs,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		rotation: NewRotation(cfg.Snapshots, 0),
	}
}

func (s *Synthetic) fileSize() int {
	if s.rng.Float64() < s.cfg.SmallFileFrac {
		lo, hi := s.cfg.SmallFileBlocks[0], s.cfg.SmallFileBlocks[1]
		return lo + s.rng.Intn(hi-lo+1)
	}
	lo, hi := s.cfg.LargeFileBlocks[0], s.cfg.LargeFileBlocks[1]
	return lo + s.rng.Intn(hi-lo+1)
}

// RunCP issues approximately OpsPerCP block operations, runs the snapshot
// rotation and clone lifecycle, and takes a checkpoint. It returns the
// committed CP number and the number of block operations issued.
func (s *Synthetic) RunCP() (cp uint64, blockOps uint64, err error) {
	start := s.fs.Stats().BlockOps
	total := s.cfg.CreateFrac + s.cfg.DeleteFrac + s.cfg.UpdateFrac
	for int(s.fs.Stats().BlockOps-start) < s.cfg.OpsPerCP {
		x := s.rng.Float64() * total
		switch {
		case x < s.cfg.CreateFrac || len(s.files) == 0:
			size := s.fileSize()
			ino, err := s.fs.CreateFile(0)
			if err != nil {
				return 0, 0, err
			}
			if err := s.fs.WriteFile(0, ino, 0, size); err != nil {
				return 0, 0, err
			}
			s.files = append(s.files, fileRef{ino: ino, size: size})
		case x < s.cfg.CreateFrac+s.cfg.DeleteFrac:
			i := s.rng.Intn(len(s.files))
			f := s.files[i]
			if err := s.fs.DeleteFile(0, f.ino); err != nil {
				return 0, 0, err
			}
			s.files = append(s.files[:i], s.files[i+1:]...)
		default:
			f := s.files[s.rng.Intn(len(s.files))]
			if f.size == 0 {
				continue
			}
			off := s.rng.Intn(f.size)
			n := 1 + s.rng.Intn(4)
			if off+n > f.size {
				n = f.size - off
			}
			if err := s.fs.WriteFile(0, f.ino, uint64(off), n); err != nil {
				return 0, 0, err
			}
		}
	}

	// Clone lifecycle: create with probability ClonesPer100CP/100, write a
	// small burst into new clones, destroy expired ones.
	if s.rng.Float64() < s.cfg.ClonesPer100CP/100 {
		if err := s.spawnClone(); err != nil {
			return 0, 0, err
		}
	}
	var keep []cloneRef
	for _, c := range s.clones {
		if s.fs.CP() >= c.expireCP {
			if err := s.fs.DeleteLine(c.line); err != nil {
				return 0, 0, err
			}
			continue
		}
		keep = append(keep, c)
	}
	s.clones = keep

	s.cpIndex++
	if err := s.rotation.Tick(s.fs, s.cpIndex); err != nil {
		return 0, 0, err
	}
	ops := s.fs.Stats().BlockOps - start
	cp, err = s.fs.Checkpoint()
	if err != nil {
		return 0, 0, err
	}
	// Reclaim freed blocks occasionally, as the asynchronous reclaimer
	// would.
	if s.cpIndex%64 == 0 {
		s.fs.Reclaim()
	}
	return cp, ops, nil
}

// spawnClone clones the most recent retained snapshot of line 0 (taking
// one first if none exists) and dirties a few files in it.
func (s *Synthetic) spawnClone() error {
	retained := s.rotation.Retained()
	if len(retained) == 0 {
		return nil // no snapshot to clone yet
	}
	base := retained[len(retained)-1]
	line, err := s.fs.Clone(0, base)
	if err != nil {
		return err
	}
	// Dirty a handful of the clone's files (COW traffic).
	inos, err := s.fs.LiveFiles(line)
	if err != nil {
		return err
	}
	for i := 0; i < 3 && len(inos) > 0; i++ {
		ino := inos[s.rng.Intn(len(inos))]
		n, err := s.fs.FileLen(line, ino)
		if err != nil || n == 0 {
			continue
		}
		if err := s.fs.WriteFile(line, ino, uint64(s.rng.Intn(int(n))), 1); err != nil {
			return err
		}
	}
	s.clones = append(s.clones, cloneRef{
		line:     line,
		expireCP: s.fs.CP() + uint64(s.cfg.CloneLifetimeCP),
	})
	return nil
}

// LiveFileCount returns how many line-0 files the generator tracks.
func (s *Synthetic) LiveFileCount() int { return len(s.files) }
