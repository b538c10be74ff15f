package apriori_test

// Cross-backend telemetry equivalence: the MineStats a CollectTracer
// gathers must satisfy the pass invariants on every backend and worker
// count, and the per-level numbers must be identical across backends —
// the counting strategy may change how supports are computed, never
// how many candidates exist or survive.

import (
	"fmt"
	"testing"

	. "github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/obs"
)

// checkStatsInvariants asserts the structural invariants of one run's
// collected stats against its mining result.
func checkStatsInvariants(t *testing.T, label string, st *obs.MineStats, res *Frequent) {
	t.Helper()
	if len(st.Levels) == 0 {
		t.Fatalf("%s: no passes collected", label)
	}
	for _, l := range st.Levels {
		if l.Pruned+l.Counted != l.Generated {
			t.Errorf("%s: L%d pruned %d + counted %d != generated %d",
				label, l.Level, l.Pruned, l.Counted, l.Generated)
		}
		if l.Frequent > l.Counted {
			t.Errorf("%s: L%d frequent %d > counted %d", label, l.Level, l.Frequent, l.Counted)
		}
		if l.Level < len(res.ByK) && l.Frequent != len(res.ByK[l.Level]) {
			t.Errorf("%s: L%d stats say %d frequent, result has %d",
				label, l.Level, l.Frequent, len(res.ByK[l.Level]))
		}
		if l.Counted > 0 && l.Rows != int64(res.N) {
			t.Errorf("%s: L%d rows = %d, want %d", label, l.Level, l.Rows, res.N)
		}
	}
	if st.Counters[obs.MetricItemsetsFrequent] != int64(res.TotalItemsets()) {
		t.Errorf("%s: itemsets_frequent counter = %d, result has %d",
			label, st.Counters[obs.MetricItemsetsFrequent], res.TotalItemsets())
	}
}

func TestMineStatsInvariantsAcrossBackends(t *testing.T) {
	src := questSource(t, 1500, 3)
	type run struct {
		label string
		stats *obs.MineStats
	}
	var runs []run
	// The deprecated roaring name must count with bitmap.
	for _, backend := range []Backend{BackendHashTree, BackendBitmap, BackendRoaring} {
		ran := backend
		if backend == BackendRoaring {
			ran = BackendBitmap
		}
		for _, workers := range []int{1, 4} {
			label := fmt.Sprintf("%v/workers=%d", backend, workers)
			collect := obs.NewCollectTracer()
			res, err := Mine(src, Config{
				MinSupport: 0.01, MaxK: 3,
				Backend: backend, Workers: workers, Tracer: collect,
			})
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			st := collect.Stats()
			checkStatsInvariants(t, label, st, res)
			for _, l := range st.Levels {
				if l.Level >= 2 && l.Backend != ran.String() {
					t.Errorf("%s: pass L%d backend = %q, want %v", label, l.Level, l.Backend, ran)
				}
			}
			if st.Backend != ran.String() {
				t.Errorf("%s: stats backend = %q, want %v", label, st.Backend, ran)
			}
			runs = append(runs, run{label: label, stats: st})
		}
	}
	// Candidate/prune/frequent counts are backend-independent.
	want := runs[0].stats
	for _, r := range runs[1:] {
		if len(r.stats.Levels) != len(want.Levels) {
			t.Fatalf("%s: %d passes, want %d", r.label, len(r.stats.Levels), len(want.Levels))
		}
		for i, l := range r.stats.Levels {
			w := want.Levels[i]
			if l.Level != w.Level || l.Generated != w.Generated ||
				l.Pruned != w.Pruned || l.Counted != w.Counted || l.Frequent != w.Frequent {
				t.Errorf("%s: L%d = {gen %d pruned %d counted %d freq %d}, want {gen %d pruned %d counted %d freq %d}",
					r.label, l.Level, l.Generated, l.Pruned, l.Counted, l.Frequent,
					w.Generated, w.Pruned, w.Counted, w.Frequent)
			}
		}
	}
}
