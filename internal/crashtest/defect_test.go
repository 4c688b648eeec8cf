package crashtest

import (
	"bytes"
	"fmt"
	"testing"

	"betrfs/internal/betree"
	"betrfs/internal/betrfs"
	"betrfs/internal/blockdev"
	"betrfs/internal/kmem"
	"betrfs/internal/sfl"
	"betrfs/internal/sim"
)

// runDefectTrial checkpoints a store, grows a media defect under a
// durable data-tree node, repairs it (relocating the image and retiring
// the extent), then crashes an unsynced follow-up write burst at spec
// and reopens. The remap table contract across the crash: the reopen
// must succeed (loadBlockTable rejects lost or double-allocated
// extents), the grown-defect list must round-trip the checkpoint
// intact, and every synced key must read back correctly even though the
// original extent is still bad media — i.e. reads must come from the
// relocated copy, and post-crash allocations must never land on the
// retired space.
func runDefectTrial(t *testing.T, spec CrashSpec) {
	t.Helper()
	env := sim.NewEnv(1)
	dev := blockdev.New(env, blockdev.SamsungEVO860().Scale(64))
	fdev := blockdev.NewFault(env, dev, blockdev.FaultPlan{})
	cfg := betrfs.V06Config().Tree
	backend, err := sfl.NewDefault(env, fdev)
	if err != nil {
		t.Fatalf("sfl format: %v", err)
	}
	st, err := betree.Open(env, kmem.New(env, true), cfg, backend)
	if err != nil {
		t.Fatalf("store format: %v", err)
	}

	const nkeys = 1500
	val := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 96) }
	for i := 0; i < nkeys; i++ {
		st.Data().Put([]byte(fmt.Sprintf("k%05d", i)), val(i), betree.LogAuto)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Grow the defect under a durable data node and repair it online.
	// The repair checkpoints, so the relocated mapping and the retired
	// extent are durable before the crash window opens.
	var victim betree.ScrubReport
	for _, rep := range st.Scrub() {
		if rep.Tree == "data" && rep.Len > victim.Len {
			victim = rep
		}
	}
	if victim.Len == 0 {
		t.Fatal("no durable data node to inject under")
	}
	badOff := backend.DevOffset("data", victim.Off)
	fdev.AddBadRange(badOff, victim.Len)
	rst, err := st.ScrubRepair()
	if err != nil {
		t.Fatalf("scrub repair: %v", err)
	}
	if rst.Repaired == 0 || rst.Unrepairable != 0 {
		t.Fatalf("repair before crash: %+v", rst)
	}
	wantCount, wantBytes := st.DefectStats()
	if wantCount == 0 {
		t.Fatal("no grown defects before crash")
	}

	dev.EnableCrashTracking()
	// Unsynced burst, log tail pushed to the device, then the crash.
	for i := 0; i < 400; i++ {
		st.Data().Put([]byte(fmt.Sprintf("u%05d", i)), val(i), betree.LogAuto)
	}
	st.Log().WriteOut()
	spec.apply(dev)

	// Remount over the same bad media (the defect is in the hardware,
	// not the fault wrapper's mood).
	fdev2 := blockdev.NewFault(env, dev, blockdev.FaultPlan{})
	fdev2.AddBadRange(badOff, victim.Len)
	b2, err := sfl.NewDefault(env, fdev2)
	if err != nil {
		t.Fatalf("%s: reopen sfl: %v", spec, err)
	}
	st2, err := betree.Open(env, kmem.New(env, true), cfg, b2)
	if err != nil {
		t.Fatalf("%s: reopen store: %v", spec, err)
	}
	gotCount, gotBytes := st2.DefectStats()
	if gotCount != wantCount || gotBytes != wantBytes {
		t.Fatalf("%s: defect list did not round-trip the crash: got (%d, %d), want (%d, %d)",
			spec, gotCount, gotBytes, wantCount, wantBytes)
	}
	st2.DropCleanCaches()
	for i := 0; i < nkeys; i++ {
		k := []byte(fmt.Sprintf("k%05d", i))
		got, ok, err := st2.Data().Get(k)
		if err != nil || !ok {
			t.Fatalf("%s: synced key %s after crash: (%v, %v)", spec, k, ok, err)
		}
		if !bytes.Equal(got, val(i)) {
			t.Fatalf("%s: synced key %s wrong bytes after crash", spec, k)
		}
	}
	for _, rep := range st2.Scrub() {
		if rep.Err != nil {
			t.Fatalf("%s: post-crash scrub: %s node %d: %v", spec, rep.Tree, rep.ID, rep.Err)
		}
	}
	// New allocations after recovery must also avoid the retired space:
	// write another synced burst and re-verify everything.
	for i := 0; i < 800; i++ {
		st2.Data().Put([]byte(fmt.Sprintf("p%05d", i)), val(i), betree.LogAuto)
	}
	if err := st2.Checkpoint(); err != nil {
		t.Fatalf("%s: post-crash checkpoint: %v", spec, err)
	}
	st2.DropCleanCaches()
	for _, rep := range st2.Scrub() {
		if rep.Err != nil {
			t.Fatalf("%s: scrub after post-crash writes: %s node %d: %v", spec, rep.Tree, rep.ID, rep.Err)
		}
	}
}

// TestDefectRemapCrashSweep sweeps prefix, torn, and subset crash points
// over the grown-defect remap table (DESIGN.md §10.6): no crash may
// lose a remap, resurrect a retired extent, or double-allocate space.
func TestDefectRemapCrashSweep(t *testing.T) {
	specs := []CrashSpec{
		{Kind: CrashPrefix, Keep: 0},
		{Kind: CrashPrefix, Keep: 3},
		{Kind: CrashPrefix, Keep: 1 << 30}, // clamped: keep everything
		{Kind: CrashTorn, Keep: 1, TornNum: 1, TornDen: 2},
		{Kind: CrashSubset, Seed: 11, KeepPct: 50},
		{Kind: CrashSubset, Seed: 12, KeepPct: 10},
	}
	if !testing.Short() {
		specs = append(specs, PrefixSpecs(8)...)
		specs = append(specs, SubsetSpecs(4, 21, 70)...)
	}
	for _, spec := range specs {
		t.Run(spec.String(), func(t *testing.T) { runDefectTrial(t, spec) })
	}
}
