package core

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// appendDays appends count transactions with the given items on day
// offset d and returns the touched granule.
func appendDay(tbl *tdb.TxTable, d, count int, items ...itemset.Item) timegran.Granule {
	at := fixtureStart.AddDate(0, 0, d)
	for i := 0; i < count; i++ {
		tbl.Append(at.Add(time.Duration(i+100)*time.Second), itemset.New(items...))
	}
	return timegran.GranuleOf(at, timegran.Day)
}

// TestMaintainInSpanDirty appends into granules strictly inside the old
// span and checks bit-identity with a cold rebuild.
func TestMaintainInSpanDirty(t *testing.T) {
	tbl := buildFixture(t)
	h, err := BuildHoldTable(tbl, fixtureConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Day 3: a burst of {choc, wine} makes the weekend pair frequent on
	// a weekday (newcomer path is not hit — the pair is tracked — but
	// its vector changes in the middle of the span). Day 10: extra
	// transactions without bbq raise the threshold so {bbq, charcoal}
	// may drop below it there.
	g3 := appendDay(tbl, 3, 12, choc, wine)
	g10 := appendDay(tbl, 10, 10, bread)
	m, err := h.Maintain(tbl, []timegran.Granule{g3, g10})
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := BuildHoldTable(tbl, fixtureConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !holdTablesEqual(m, rebuilt) {
		t.Fatal("Maintain differs from full rebuild")
	}
}

// TestMaintainNewcomerRecovery appends a brand-new pair frequent in one
// dirty granule; its clean-region history must be recovered exactly.
func TestMaintainNewcomerRecovery(t *testing.T) {
	tbl := buildFixture(t)
	// Sprinkle sub-threshold occurrences of {7,8} through the history so
	// recovery has something non-zero to find.
	for d := 0; d < 28; d += 4 {
		appendDay(tbl, d, 2, 7, 8)
	}
	h, err := BuildHoldTable(tbl, fixtureConfig())
	if err != nil {
		t.Fatal(err)
	}
	if h.Counts(itemset.New(7, 8)) != nil {
		t.Fatal("fixture: {7,8} already tracked")
	}
	g := appendDay(tbl, 14, 15, 7, 8)
	m, err := h.Maintain(tbl, []timegran.Granule{g})
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := BuildHoldTable(tbl, fixtureConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !holdTablesEqual(m, rebuilt) {
		t.Fatal("Maintain differs from full rebuild")
	}
	if m.Counts(itemset.New(7, 8)) == nil {
		t.Fatal("newcomer pair not tracked after Maintain")
	}
}

// TestMaintainSpanGrowth covers appends both before the old span start
// and after its end, all declared dirty.
func TestMaintainSpanGrowth(t *testing.T) {
	tbl := buildFixture(t)
	h, err := BuildHoldTable(tbl, fixtureConfig())
	if err != nil {
		t.Fatal(err)
	}
	gPre := appendDay(tbl, -2, 10, bread, milk)
	gPost := appendDay(tbl, 30, 10, bread, milk)
	m, err := h.Maintain(tbl, []timegran.Granule{gPre, gPost})
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := BuildHoldTable(tbl, fixtureConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !holdTablesEqual(m, rebuilt) {
		t.Fatal("Maintain differs from full rebuild after span growth")
	}
}

// TestMaintainIncompleteDirtyList drops a changed granule from the
// dirty list; Maintain must refuse rather than splice stale counts.
func TestMaintainIncompleteDirtyList(t *testing.T) {
	tbl := buildFixture(t)
	h, err := BuildHoldTable(tbl, fixtureConfig())
	if err != nil {
		t.Fatal(err)
	}
	g5 := appendDay(tbl, 5, 3, bread)
	appendDay(tbl, 9, 3, bread)
	if _, err := h.Maintain(tbl, []timegran.Granule{g5}); err == nil {
		t.Fatal("Maintain accepted an incomplete dirty list")
	}
	// The complete list is fine.
	g9 := timegran.GranuleOf(fixtureStart.AddDate(0, 0, 9), timegran.Day)
	if _, err := h.Maintain(tbl, []timegran.Granule{g5, g9}); err != nil {
		t.Fatal(err)
	}
}

// TestMaintainWithDirtySince wires the table's change log to Maintain:
// the production path the cache uses.
func TestMaintainWithDirtySince(t *testing.T) {
	tbl := buildFixture(t)
	epoch := tbl.Epoch()
	h, err := BuildHoldTable(tbl, fixtureConfig())
	if err != nil {
		t.Fatal(err)
	}
	appendDay(tbl, 2, 6, choc, wine)
	appendDay(tbl, 20, 4, bbq, charcoal)
	appendDay(tbl, 29, 10, bread, milk)
	dirty, _, ok := tbl.DirtySince(timegran.Day, epoch)
	if !ok {
		t.Fatal("DirtySince not covered")
	}
	m, err := h.Maintain(tbl, dirty)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := BuildHoldTable(tbl, fixtureConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !holdTablesEqual(m, rebuilt) {
		t.Fatal("Maintain(DirtySince) differs from full rebuild")
	}
}

// TestQuickMaintainEquivalent is the property-based version: random
// base data, a random batch of appends into random granules (inside and
// outside the old span), Maintain must equal a cold rebuild.
func TestQuickMaintainEquivalent(t *testing.T) {
	cfg := Config{Granularity: timegran.Day, MinSupport: 0.4, MinConfidence: 0.5, MinFreq: 1, MaxK: 4}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tbl, _ := tdb.NewTxTable("q")
		start := time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)
		days := 6 + rng.Intn(6)
		for d := 0; d < days; d++ {
			for i, ntx := 0, 2+rng.Intn(5); i < ntx; i++ {
				var items []itemset.Item
				for x := itemset.Item(1); x <= 5; x++ {
					if rng.Intn(2) == 0 {
						items = append(items, x)
					}
				}
				if len(items) == 0 {
					items = append(items, 1)
				}
				tbl.Append(start.AddDate(0, 0, d).Add(time.Duration(i)*time.Minute), itemset.New(items...))
			}
		}
		epoch := tbl.Epoch()
		h, err := BuildHoldTable(tbl, cfg)
		if err != nil {
			return true // degenerate (e.g. no active granule): nothing to maintain
		}
		// Random appends: days -1..days+2, so prepends, in-span and
		// extension all occur.
		for a, na := 0, 1+rng.Intn(8); a < na; a++ {
			d := -1 + rng.Intn(days+3)
			var items []itemset.Item
			for x := itemset.Item(1); x <= 5; x++ {
				if rng.Intn(2) == 0 {
					items = append(items, x)
				}
			}
			if len(items) == 0 {
				items = append(items, 2)
			}
			tbl.Append(start.AddDate(0, 0, d).Add(time.Duration(a)*time.Second), itemset.New(items...))
		}
		dirty, _, ok := tbl.DirtySince(timegran.Day, epoch)
		if !ok {
			return false
		}
		m, err := h.Maintain(tbl, dirty)
		if err != nil {
			return false
		}
		rebuilt, err := BuildHoldTable(tbl, cfg)
		if err != nil {
			return false
		}
		return holdTablesEqual(m, rebuilt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMaintainNewWeekMatchesRebuild appends a week after the span end,
// the production pattern of one new period arriving: a pair frequent
// only in the new week must be tracked with zero history.
func TestMaintainNewWeekMatchesRebuild(t *testing.T) {
	tbl := buildFixture(t)
	epoch := tbl.Epoch()
	h, err := BuildHoldTable(tbl, fixtureConfig())
	if err != nil {
		t.Fatal(err)
	}
	for d := 28; d < 35; d++ {
		appendDay(tbl, d, 8, bread, milk, 7, 8)
		appendDay(tbl, d, 2, bread, 7, 8)
	}
	dirty, _, ok := tbl.DirtySince(timegran.Day, epoch)
	if !ok {
		t.Fatal("DirtySince not covered")
	}
	m, err := h.MaintainContext(context.Background(), tbl, dirty)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := BuildHoldTable(tbl, fixtureConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !holdTablesEqual(m, rebuilt) {
		t.Fatal("Maintain differs from full rebuild")
	}
	v := m.Counts(itemset.New(7, 8))
	if v == nil {
		t.Fatal("newcomer pair not tracked")
	}
	for gi := 0; gi < 28; gi++ {
		if v[gi] != 0 {
			t.Errorf("newcomer pair has history count %d at day %d", v[gi], gi)
		}
	}
	for gi := 28; gi < 35; gi++ {
		if v[gi] != 10 {
			t.Errorf("newcomer pair count %d at day %d, want 10", v[gi], gi)
		}
	}
}

func TestMaintainErrors(t *testing.T) {
	tbl := buildFixture(t)
	h, err := BuildHoldTable(tbl, fixtureConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	empty, _ := tdb.NewTxTable("empty")
	if _, err := h.MaintainContext(ctx, empty, nil); err == nil {
		t.Error("Maintain on empty table accepted")
	}
	if _, err := (&HoldTable{Cfg: h.Cfg}).MaintainContext(ctx, tbl, nil); err == nil {
		t.Error("Maintain on an unbuilt hold table accepted")
	}
}

// TestMaintainThenMine exercises the end-to-end path: mine from a
// maintained table and from a rebuilt one; identical output.
func TestMaintainThenMine(t *testing.T) {
	tbl := buildFixture(t)
	epoch := tbl.Epoch()
	h, err := BuildHoldTable(tbl, fixtureConfig())
	if err != nil {
		t.Fatal(err)
	}
	for d := 28; d < 42; d++ {
		at := fixtureStart.AddDate(0, 0, d)
		weekend := d%7 == 5 || d%7 == 6
		for i := 0; i < 10; i++ {
			items := []itemset.Item{bread}
			if i < 8 {
				items = append(items, milk)
			}
			if weekend && i < 9 {
				items = append(items, choc, wine)
			}
			tbl.Append(at.Add(time.Duration(i)*time.Minute), itemset.New(items...))
		}
	}
	dirty, _, ok := tbl.DirtySince(timegran.Day, epoch)
	if !ok {
		t.Fatal("DirtySince not covered")
	}
	maintained, err := h.MaintainContext(context.Background(), tbl, dirty)
	if err != nil {
		t.Fatal(err)
	}
	a, err := MineCyclesFromTable(maintained, CycleConfig{MaxLen: 10, MinReps: 2})
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, _ := BuildHoldTable(tbl, fixtureConfig())
	b, err := MineCyclesFromTable(rebuilt, CycleConfig{MaxLen: 10, MinReps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("maintained mining found %d cyclic rules, rebuilt %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Cycle != b[i].Cycle || !a[i].Rule.Antecedent.Equal(b[i].Rule.Antecedent) {
			t.Errorf("rule %d differs", i)
		}
	}
}
