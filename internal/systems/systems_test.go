package systems

import (
	"reflect"
	"strings"
	"testing"

	"betrfs/internal/betrfs"
	"betrfs/internal/blockdev"
	"betrfs/internal/sim"
)

func lookup(t *testing.T, name string) System {
	t.Helper()
	s, err := Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestOneDefinitionOfV06 ties Table 1's and Table 3's BetrFS to the
// configurations the betrfs package exports, which every other stack (the
// benchmark's among them) builds from: the ladder starts at v0.4 on the
// southbound stack and its top rung is v0.6 on the SFL.
func TestOneDefinitionOfV06(t *testing.T) {
	bottom, top := lookup(t, Ladder[0]), lookup(t, Ladder[len(Ladder)-1])
	if !reflect.DeepEqual(bottom.Betr, betrfs.V04Config()) || bottom.sfl {
		t.Errorf("ladder bottom %s = %+v (sfl %v), want betrfs.V04Config on southbound", bottom.Name, bottom.Betr, bottom.sfl)
	}
	for _, s := range []System{top, lookup(t, "betrfs-v0.6"), lookup(t, "betrfs-v0.6-hdd")} {
		if !reflect.DeepEqual(s.Betr, betrfs.V06Config()) || !s.sfl {
			t.Errorf("%s = %+v (sfl %v), want betrfs.V06Config on the SFL", s.Name, s.Betr, s.sfl)
		}
	}
}

func TestLadderIsCumulative(t *testing.T) {
	// Each rung must add exactly its feature on top of the previous one.
	sfl := lookup(t, "betrfs+SFL")
	if !sfl.sfl || !sfl.Betr.Tree.ReadAhead {
		t.Fatal("+SFL must enable the SFL backend and tree read-ahead")
	}
	if sfl.Betr.RangeMessages || sfl.Betr.CooperativeMem || sfl.Betr.Tree.PageSharing {
		t.Fatal("+SFL must not enable later rungs")
	}
	rg := lookup(t, "betrfs+RG")
	if !rg.Betr.RangeMessages || !rg.Betr.Tree.CoalesceRangeDeletes {
		t.Fatal("+RG features missing")
	}
	if rg.Betr.CooperativeMem {
		t.Fatal("+RG must not enable MLC")
	}
	qry := lookup(t, "betrfs+QRY")
	if qry.Betr.Tree.LegacyApplyOnQuery {
		t.Fatal("+QRY must disable the legacy apply-on-query policy")
	}
	if !qry.Betr.ConditionalLogging || !qry.Betr.Tree.PageSharing || !qry.Betr.CooperativeMem {
		t.Fatal("+QRY must include all earlier rungs")
	}
	v04 := lookup(t, "betrfs-v0.4")
	if v04.sfl || v04.Betr.Tree.ReadAhead || v04.Betr.RangeMessages || !v04.Betr.Tree.LegacyApplyOnQuery {
		t.Fatal("v0.4 config wrong")
	}
	for i := 1; i < len(Ladder); i++ {
		prev, next := lookup(t, Ladder[i-1]), lookup(t, Ladder[i])
		if reflect.DeepEqual(prev.Betr, next.Betr) && prev.sfl == next.sfl {
			t.Errorf("%s adds nothing to %s", Ladder[i], Ladder[i-1])
		}
	}
}

// TestEveryNameMounts formats every catalogue name over a small bare
// device with the testbed's memory, then creates and stats a file.
func TestEveryNameMounts(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			s := lookup(t, name)
			env := sim.NewEnv(1)
			st, err := s.New(env, blockdev.New(env, s.Device().Scale(256)), s.Testbed(256))
			if err != nil {
				t.Fatal(err)
			}
			f, err := st.Mount.Create("probe")
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte("x"))
			f.Close()
			if _, err := st.Mount.Stat("probe"); err != nil {
				t.Fatal(err)
			}
			if (st.SFL != nil) != s.sfl {
				t.Errorf("SFL handle %v for a system with sfl=%v", st.SFL, s.sfl)
			}
		})
	}
}

// TestRecoverKeepsSyncedFile remounts every Recoverable system after a
// crash that drops everything unflushed; a synced file survives.
func TestRecoverKeepsSyncedFile(t *testing.T) {
	for _, name := range Recoverable {
		t.Run(name, func(t *testing.T) {
			s := lookup(t, name)
			env := sim.NewEnv(1)
			dev := blockdev.New(env, s.Device().Scale(256))
			st, err := s.New(env, dev, Sizes{})
			if err != nil {
				t.Fatal(err)
			}
			dev.EnableCrashTracking()
			f, err := st.Mount.Create("kept")
			if err != nil {
				t.Fatal(err)
			}
			f.Write([]byte("durable"))
			f.Close()
			if err := st.Mount.Sync(); err != nil {
				t.Fatal(err)
			}
			dev.Crash(0)
			st2, err := s.Recover(env, dev, Sizes{})
			if err != nil {
				t.Fatal(err)
			}
			if a, err := st2.Mount.Stat("kept"); err != nil || a.Size != 7 {
				t.Fatalf("synced file after recovery: %+v, %v", a, err)
			}
		})
	}
}

func TestV04HasNoRecovery(t *testing.T) {
	s := lookup(t, "betrfs-v0.4")
	env := sim.NewEnv(1)
	if _, err := s.Recover(env, blockdev.New(env, s.Device().Scale(256)), Sizes{}); err == nil {
		t.Fatal("betrfs-v0.4 recovered; its southbound files cannot be reopened")
	}
}

func TestUnknownNameIsAnError(t *testing.T) {
	_, err := Lookup("nope")
	if err == nil {
		t.Fatal("Lookup(nope) succeeded")
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %s", err, name)
		}
	}
}

// TestListsNameCatalogueSystems keeps every harness list inside the
// catalogue and the testbed memory split as the paper states it.
func TestListsNameCatalogueSystems(t *testing.T) {
	for _, list := range [][]string{Table1, Ladder, HDD, Core, Recoverable} {
		for _, name := range list {
			lookup(t, name)
		}
	}
	if got := lookup(t, "ext4").Testbed(64); got != (Sizes{PageCache: 512 << 20}) {
		t.Errorf("ext4 testbed at 1/64 = %+v, want all 512 MiB as page cache", got)
	}
	if got := lookup(t, "betrfs+PGSH").Testbed(64); got != (Sizes{NodeCache: 256 << 20, PageCache: 256 << 20}) {
		t.Errorf("BetrFS testbed at 1/64 = %+v, want 256 MiB node cache and 256 MiB page cache", got)
	}
	if lookup(t, "ext4-hdd").Device().Name != "hdd" || lookup(t, "ext4").Device().Name != "ssd" {
		t.Error("the -hdd names must run on the hard disk, the rest on the SSD")
	}
}
