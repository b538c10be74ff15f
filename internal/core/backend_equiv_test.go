package core

import (
	"fmt"
	"testing"
	"time"

	"github.com/tarm-project/tarm/internal/apriori"
	"github.com/tarm-project/tarm/internal/gen"
	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/obs"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// backendTestTable draws a small temporal dataset with planted rules so
// all hold-table levels are populated.
func backendTestTable(t *testing.T, seed int64) *tdb.TxTable {
	t.Helper()
	weekend, err := timegran.NewCalendar(timegran.FieldWeekday, timegran.FieldRange{Lo: 6, Hi: 7})
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := gen.GenerateTemporal(gen.TemporalConfig{
		Quest:        gen.QuestConfig{NItems: 120, NPatterns: 30, AvgTxLen: 8},
		Start:        time.Date(2001, 3, 1, 0, 0, 0, 0, time.UTC),
		Granularity:  timegran.Day,
		NGranules:    56,
		TxPerGranule: 25,
		Rules: []gen.PlantedRule{
			{Name: "weekend", Items: itemset.New(500, 501), Pattern: weekend, PInside: 0.5, POutside: 0.01},
		},
	}, seed)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// sameHoldTable asserts two builds agree exactly: same thresholds, same
// granule-frequent itemsets level by level, same per-granule counts.
func sameHoldTable(t *testing.T, label string, want, got *HoldTable) {
	t.Helper()
	if got.NGranules() != want.NGranules() || got.NActive != want.NActive {
		t.Fatalf("%s: granules %d/%d, want %d/%d", label, got.NGranules(), got.NActive, want.NGranules(), want.NActive)
	}
	for gi := range want.MinCounts {
		if got.MinCounts[gi] != want.MinCounts[gi] || got.Active[gi] != want.Active[gi] {
			t.Fatalf("%s: granule %d threshold %d/%v, want %d/%v",
				label, gi, got.MinCounts[gi], got.Active[gi], want.MinCounts[gi], want.Active[gi])
		}
	}
	if len(got.ByK) != len(want.ByK) {
		t.Fatalf("%s: %d levels, want %d", label, len(got.ByK)-1, len(want.ByK)-1)
	}
	for k := 1; k < len(want.ByK); k++ {
		if len(got.ByK[k]) != len(want.ByK[k]) {
			t.Fatalf("%s: level %d has %d itemsets, want %d", label, k, len(got.ByK[k]), len(want.ByK[k]))
		}
		for i, w := range want.ByK[k] {
			g := got.ByK[k][i]
			if !g.Equal(w) {
				t.Fatalf("%s: level %d item %d = %v, want %v", label, k, i, g, w)
			}
			wc, gc := want.Counts(w), got.Counts(g)
			for gi := range wc {
				if wc[gi] != gc[gi] {
					t.Fatalf("%s: %v counts differ at granule %d: %d, want %d", label, w, gi, gc[gi], wc[gi])
				}
			}
		}
	}
}

// TestHoldTableBackendEquivalence is the per-granule half of the
// cross-backend property test: naive, hash-tree and bitmap builds of
// the HoldTable must agree bit for bit across a support grid, with the
// parallel worker pool of each backend exercised as well.
func TestHoldTableBackendEquivalence(t *testing.T) {
	tbl := backendTestTable(t, 42)
	for _, minsup := range []float64{0.1, 0.05} {
		base := Config{
			Granularity:   timegran.Day,
			MinSupport:    minsup,
			MinConfidence: 0.5,
			MinFreq:       0.8,
			MaxK:          3,
		}
		ref := base
		ref.Backend = apriori.BackendNaive
		want, err := BuildHoldTable(tbl, ref)
		if err != nil {
			t.Fatal(err)
		}
		type variant struct {
			backend apriori.Backend
			workers int
		}
		variants := []variant{
			{apriori.BackendAuto, 0},
			{apriori.BackendNaive, 4},
			{apriori.BackendHashTree, 1},
			{apriori.BackendHashTree, 4},
			{apriori.BackendBitmap, 1},
			{apriori.BackendBitmap, 4},
		}
		for _, v := range variants {
			cfg := base
			cfg.Backend = v.backend
			cfg.Workers = v.workers
			got, err := BuildHoldTable(tbl, cfg)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("minsup=%g backend=%v workers=%d", minsup, v.backend, v.workers)
			sameHoldTable(t, label, want, got)
		}
	}
}

// TestHoldTableAutoCountsWithBitmap pins the backend rule on the shape
// of the benchmark's s4 table: many short transactions (|T|=4, 400 per
// day). Auto, and the deprecated roaring name, must count every k≥2
// pass with bitmap.
func TestHoldTableAutoCountsWithBitmap(t *testing.T) {
	tbl, err := gen.GenerateTemporal(gen.TemporalConfig{
		Quest:        gen.QuestConfig{NItems: 500, NPatterns: 200, AvgTxLen: 4},
		Start:        time.Date(1998, 1, 1, 0, 0, 0, 0, time.UTC),
		Granularity:  timegran.Day,
		NGranules:    28,
		TxPerGranule: 400,
	}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []apriori.Backend{apriori.BackendAuto, apriori.BackendRoaring} {
		collect := obs.NewCollectTracer()
		if _, err := BuildHoldTable(tbl, Config{
			Granularity:   timegran.Day,
			MinSupport:    0.05,
			MinConfidence: 0.5,
			MinFreq:       0.8,
			Backend:       backend,
			Tracer:        collect,
		}); err != nil {
			t.Fatal(err)
		}
		passes := 0
		for _, l := range collect.Stats().Levels {
			if l.Level < 2 {
				continue
			}
			passes++
			if l.Backend != "bitmap" {
				t.Errorf("%v: pass L%d counted with %q, want bitmap", backend, l.Level, l.Backend)
			}
		}
		if passes == 0 {
			t.Fatalf("%v: no k≥2 pass recorded", backend)
		}
	}
}
