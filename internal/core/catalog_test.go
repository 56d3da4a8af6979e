package core

import (
	"encoding/json"
	"testing"
)

func TestCatalogSnapshots(t *testing.T) {
	c := NewMemCatalog()
	if !c.Topology().IsLive(0) {
		t.Fatal("line 0 not live")
	}
	if err := c.CreateSnapshot(0, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateSnapshot(0, 9); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateSnapshot(1, 5); err == nil {
		t.Fatal("snapshot on unknown line accepted")
	}
	if got := c.Topology().SnapshotsIn(0, 0, Infinity); len(got) != 2 || got[0] != 5 || got[1] != 9 {
		t.Fatalf("SnapshotsIn = %v", got)
	}
	if got := c.Topology().SnapshotsIn(0, 6, 9); len(got) != 0 {
		t.Fatalf("SnapshotsIn(6,9) = %v", got)
	}
	if got := c.Topology().SnapshotsIn(0, 9, 10); len(got) != 1 {
		t.Fatalf("SnapshotsIn(9,10) = %v", got)
	}
	if err := c.DeleteSnapshot(0, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteSnapshot(0, 5); err == nil {
		t.Fatal("double delete accepted")
	}
	if got := c.Snapshots(0); len(got) != 1 || got[0] != 9 {
		t.Fatalf("Snapshots = %v", got)
	}
}

func TestCatalogClones(t *testing.T) {
	c := NewMemCatalog()
	if err := c.CreateClone(1, 0, 5); err == nil {
		t.Fatal("clone of non-snapshot accepted")
	}
	if err := c.CreateSnapshot(0, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateClone(1, 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateClone(1, 0, 5); err == nil {
		t.Fatal("duplicate line accepted")
	}
	if !c.Topology().IsLive(1) {
		t.Fatal("clone not live")
	}
	clones := c.Topology().Clones(0)
	if len(clones) != 1 || clones[0] != (Clone{Line: 1, Base: 5}) {
		t.Fatalf("Clones = %+v", clones)
	}
	if !c.Topology().PinnedIn(0, 5, 6) {
		t.Fatal("clone base not pinned")
	}
	if c.Topology().PinnedIn(0, 6, 10) {
		t.Fatal("non-base version pinned")
	}
}

func TestCatalogZombies(t *testing.T) {
	c := NewMemCatalog()
	if err := c.CreateSnapshot(0, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateClone(1, 0, 5); err != nil {
		t.Fatal(err)
	}
	// Deleting the cloned snapshot makes it a zombie: it disappears from
	// SnapshotsIn but stays pinned.
	if err := c.DeleteSnapshot(0, 5); err != nil {
		t.Fatal(err)
	}
	if got := c.Topology().SnapshotsIn(0, 0, Infinity); len(got) != 0 {
		t.Fatalf("zombie still listed: %v", got)
	}
	if !c.Topology().PinnedIn(0, 5, 6) {
		t.Fatal("zombie base not pinned")
	}
	if len(c.Topology().Clones(0)) != 1 {
		t.Fatal("clone of zombie not returned")
	}
	// Reaping with the clone still alive releases nothing.
	if n := c.ReapZombies(); n != 0 {
		t.Fatalf("ReapZombies released %d with live clone", n)
	}
	// Delete the clone line; the zombie can now be reaped.
	if err := c.DeleteLine(1); err != nil {
		t.Fatal(err)
	}
	if n := c.ReapZombies(); n != 1 {
		t.Fatalf("ReapZombies released %d, want 1", n)
	}
	if c.Topology().PinnedIn(0, 5, 6) {
		t.Fatal("reaped zombie still pinned")
	}
	if len(c.Topology().Clones(0)) != 0 {
		t.Fatal("dead clone still returned")
	}
}

func TestCatalogTransitiveClones(t *testing.T) {
	// line0 --snap5--> line1 --snap9--> line2; line1 deleted entirely.
	// line0's version 5 must stay pinned because line2 transitively
	// inherits through line1.
	c := NewMemCatalog()
	if err := c.CreateSnapshot(0, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateClone(1, 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateSnapshot(1, 9); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateClone(2, 1, 9); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteSnapshot(1, 9); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteLine(1); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteSnapshot(0, 5); err != nil {
		t.Fatal(err)
	}
	// line1 is dead (no live FS, no snapshots) but line2 needs it.
	if !c.Topology().PinnedIn(0, 5, 6) {
		t.Fatal("transitively needed base not pinned")
	}
	if !c.Topology().PinnedIn(1, 9, 10) {
		t.Fatal("line1's cloned version not pinned")
	}
	if n := c.ReapZombies(); n != 0 {
		t.Fatalf("reaped %d while line2 alive", n)
	}
	// Kill line2: everything collapses.
	if err := c.DeleteLine(2); err != nil {
		t.Fatal(err)
	}
	c.ReapZombies()
	c.ReapZombies() // second pass collapses the now-unneeded line1 chain
	if c.Topology().PinnedIn(0, 5, 6) {
		t.Fatal("base still pinned after all descendants died")
	}
}

func TestCatalogJSONRoundTrip(t *testing.T) {
	c := NewMemCatalog()
	if err := c.CreateSnapshot(0, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateSnapshot(0, 9); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateClone(1, 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteSnapshot(0, 5); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewMemCatalog()
	if err := json.Unmarshal(data, c2); err != nil {
		t.Fatal(err)
	}
	if !c2.Topology().IsLive(1) || !c2.Topology().IsLive(0) {
		t.Fatal("liveness lost")
	}
	if got := c2.Snapshots(0); len(got) != 1 || got[0] != 9 {
		t.Fatalf("snapshots lost: %v", got)
	}
	if !c2.Topology().PinnedIn(0, 5, 6) {
		t.Fatal("zombie pin lost")
	}
	if cl := c2.Topology().Clones(0); len(cl) != 1 || cl[0].Line != 1 {
		t.Fatalf("clones lost: %+v", cl)
	}
}

func TestCatalogLines(t *testing.T) {
	c := NewMemCatalog()
	if err := c.CreateSnapshot(0, 3); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateClone(7, 0, 3); err != nil {
		t.Fatal(err)
	}
	lines := c.Lines()
	if len(lines) != 2 || lines[0] != 0 || lines[1] != 7 {
		t.Fatalf("Lines = %v", lines)
	}
}

// TestOldestReachable pins the reclaim-horizon contract: the minimum over
// every line's snapshot AND zombie versions, ok=false when nothing is
// retained, and invalidation on every mutation that can move it.
func TestOldestReachable(t *testing.T) {
	c := NewMemCatalog()
	if _, ok := c.Topology().OldestReachable(); ok {
		t.Fatal("empty catalog reports a reachable version")
	}

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	at := func(want uint64) {
		t.Helper()
		got, ok := c.Topology().OldestReachable()
		if !ok || got != want {
			t.Fatalf("OldestReachable = (%d, %v), want (%d, true)", got, ok, want)
		}
	}

	must(c.CreateSnapshot(0, 7))
	at(7)
	must(c.CreateSnapshot(0, 4))
	at(4)
	// A snapshot on a cloned line counts too.
	must(c.CreateClone(1, 0, 7))
	must(c.CreateSnapshot(1, 9))
	at(4)

	// Deleting the oldest snapshot advances the horizon...
	must(c.DeleteSnapshot(0, 4))
	at(7)
	// ...but deleting a clone base only zombifies it: version 7 stays
	// reachable until the clone disappears.
	must(c.DeleteSnapshot(0, 7))
	at(7)

	// Dropping the clone and reaping the zombie finally releases 7.
	must(c.DeleteLine(1))
	must(c.DeleteSnapshot(1, 9))
	if c.ReapZombies() != 1 {
		t.Fatal("zombie version 7 not reaped")
	}
	if _, ok := c.Topology().OldestReachable(); ok {
		t.Fatal("horizon still pinned after the last retained version died")
	}
}

// TestCatalogPublishes: every change publishes a new Topology and nothing
// else does — not a refused call, not a zombie examination that finds
// nothing to release, and not a read — so a held Topology answers the same
// for as long as it is held, and one that has not changed costs no
// serialization.
func TestCatalogPublishes(t *testing.T) {
	c := NewMemCatalog()
	topo := c.Topology()
	published := func(what string, want bool) {
		t.Helper()
		now := c.Topology()
		if (now != topo) != want {
			t.Fatalf("%s: published=%v, want %v", what, now != topo, want)
		}
		topo = now
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.CreateSnapshot(0, 5))
	published("CreateSnapshot", true)
	held := c.Topology()
	if c.CreateSnapshot(9, 5) == nil || c.DeleteSnapshot(0, 6) == nil || c.CreateClone(1, 0, 6) == nil || c.DeleteLine(9) == nil {
		t.Fatal("a call on an unknown line or version was accepted")
	}
	published("refused calls", false)
	must(c.CreateClone(1, 0, 5))
	published("CreateClone", true)
	must(c.DeleteSnapshot(0, 5)) // now a zombie, pinned by line 1
	published("DeleteSnapshot", true)
	if c.ReapZombies() != 0 {
		t.Fatal("reaped a zombie its clone still needs")
	}
	published("ReapZombies with nothing to release", false)
	c.Topology().SnapshotsIn(0, 0, Infinity)
	c.Topology().OldestReachable()
	c.Snapshots(0)
	c.Lines()
	if _, err := json.Marshal(c); err != nil {
		t.Fatal(err)
	}
	published("reads", false)
	must(c.DeleteLine(1))
	published("DeleteLine", true)
	if c.ReapZombies() != 1 {
		t.Fatal("zombie not reaped after its clone died")
	}
	published("ReapZombies that released a version", true)
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	must(json.Unmarshal(data, c))
	published("UnmarshalJSON", true)

	// The topology taken after the first snapshot still has it, and no
	// clone, whatever happened since.
	if got := held.SnapshotsIn(0, 0, Infinity); len(got) != 1 || got[0] != 5 || held.Clones(0) != nil || !held.IsLive(0) {
		t.Fatalf("a held topology changed: snapshots %v, clones %v", got, held.Clones(0))
	}
}
