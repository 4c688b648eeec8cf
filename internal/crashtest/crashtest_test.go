package crashtest

import (
	"testing"
)

func report(t *testing.T, o Outcome) {
	t.Helper()
	for _, v := range o.Violations {
		t.Errorf("%s", v)
	}
	if len(o.Violations) == 0 {
		t.Logf("%d trials, no oracle violations", o.Trials)
	}
}

// prefixSpecsFor enumerates exhaustively when the crash space is small
// and strides through it otherwise, always including both endpoints.
func prefixSpecsFor(n, budget int) []CrashSpec {
	if n+1 <= budget {
		return PrefixSpecs(n)
	}
	stride := (n + budget - 1) / budget
	var out []CrashSpec
	for k := 0; k <= n; k += stride {
		out = append(out, CrashSpec{Kind: CrashPrefix, Keep: k})
	}
	out = append(out, CrashSpec{Kind: CrashPrefix, Keep: n})
	return out
}

// tornSpecs tears every stride-th write boundary below n at 1/4 and 3/4.
func tornSpecs(n, stride int) []CrashSpec {
	var out []CrashSpec
	for k := 0; k < n; k += stride {
		for _, num := range []int{1, 3} {
			out = append(out, CrashSpec{Kind: CrashTorn, Keep: k, TornNum: num, TornDen: 4})
		}
	}
	return out
}

func workloadFor(t *testing.T) []Step {
	n := 10
	if testing.Short() {
		n = 6
	}
	return StandardWorkload(7, n)
}

// sweepEach sweeps steps on each system at the specs specsFor gives for
// the program's unflushed-write count there.
func sweepEach(t *testing.T, systems []System, steps []Step, specsFor func(n int) []CrashSpec) {
	for _, sys := range systems {
		t.Run(sys.Name, func(t *testing.T) {
			report(t, Sweep(sys, steps, specsFor(ProbeUnflushed(sys, steps))))
		})
	}
}

func TestPrefixCrashSweep(t *testing.T) {
	budget := 40
	if testing.Short() {
		budget = 12
	}
	sweepEach(t, Systems(), workloadFor(t), func(n int) []CrashSpec { return prefixSpecsFor(n, budget) })
}

func TestTornCrashSweep(t *testing.T) {
	sweepEach(t, Systems(), workloadFor(t), func(n int) []CrashSpec { return tornSpecs(n, n/10+1) })
}

func TestSubsetCrashSweep(t *testing.T) {
	trials := 12
	if testing.Short() {
		trials = 4
	}
	specs := append(SubsetSpecs(trials, 101, 50), SubsetSpecs(trials/2, 900, 85)...)
	sweepEach(t, Systems(), workloadFor(t), func(int) []CrashSpec { return specs })
}

// TestCleanSyncSurvives pins the oracle's easy direction: crashing with
// nothing unflushed (workload ends in Sync) must preserve everything.
func TestCleanSyncSurvives(t *testing.T) {
	sweepEach(t, Systems(), append(workloadFor(t), Step{Op: OpSync}), func(int) []CrashSpec {
		return []CrashSpec{{Kind: CrashPrefix, Keep: 0}}
	})
}

func TestStoreCrashSweep(t *testing.T) {
	n := 30
	if testing.Short() {
		n = 12
	}
	ops := StandardStoreOps(5, n)
	// Probe the unflushed-write count with a keep-everything trial.
	probeSpec := CrashSpec{Kind: CrashPrefix, Keep: 1 << 30}
	if vs := RunStoreTrial(ops, probeSpec); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("%s", v)
		}
	}

	var specs []CrashSpec
	specs = append(specs, prefixSpecsFor(64, 24)...)
	specs = append(specs, tornSpecs(8, 1)...)
	specs = append(specs, SubsetSpecs(8, 55, 50)...)
	trials := 0
	for _, spec := range specs {
		for _, v := range RunStoreTrial(ops, spec) {
			t.Errorf("%s", v)
		}
		trials++
	}
	t.Logf("%d store trials", trials)
}
