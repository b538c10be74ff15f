package apriori

import (
	"math/rand"
	"testing"

	"github.com/tarm-project/tarm/internal/itemset"
)

// densities span several octaves, including ultra-sparse tail items.
func randomSource(seed int64, n, items int) Transactions {
	rng := rand.New(rand.NewSource(seed))
	txs := make([]itemset.Set, n)
	for i := range txs {
		var s []itemset.Item
		for x := 0; x < items; x++ {
			// item x appears with density ~ 1/(x+2)
			if rng.Intn(x+2) == 0 {
				s = append(s, itemset.Item(x))
			}
		}
		txs[i] = itemset.New(s...)
	}
	return Transactions(txs)
}

// TestPrefixRunChunks checks the chunking properties: full coverage in
// order, no chunk boundary inside a (k-1)-prefix run, and plain even
// splitting for k ≤ 1.
func TestPrefixRunChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		var cands []itemset.Set
		nRuns := 1 + rng.Intn(20)
		for r := 0; r < nRuns; r++ {
			runLen := 1 + rng.Intn(6)
			a, b := itemset.Item(r), itemset.Item(100+rng.Intn(50))
			for j := 0; j < runLen; j++ {
				cands = append(cands, itemset.New(a, b, itemset.Item(200+r*10+j)))
			}
		}
		itemset.SortSets(cands)
		workers := 1 + rng.Intn(8)
		chunks := PrefixRunChunks(cands, workers)
		pos := 0
		for _, ch := range chunks {
			if ch[0] != pos {
				t.Fatalf("trial %d: chunk starts at %d, want %d", trial, ch[0], pos)
			}
			if ch[1] <= ch[0] {
				t.Fatalf("trial %d: empty chunk %v", trial, ch)
			}
			pos = ch[1]
			if ch[1] < len(cands) && samePrefixK1(cands[ch[1]-1], cands[ch[1]]) {
				t.Fatalf("trial %d: boundary %d splits a prefix run", trial, ch[1])
			}
		}
		if pos != len(cands) {
			t.Fatalf("trial %d: chunks cover %d of %d", trial, pos, len(cands))
		}
	}
	// k == 1: no prefixes; must still split evenly and cover.
	var ones []itemset.Set
	for i := 0; i < 10; i++ {
		ones = append(ones, itemset.New(itemset.Item(i)))
	}
	chunks := PrefixRunChunks(ones, 3)
	if len(chunks) != 3 {
		t.Fatalf("k=1: got %d chunks, want 3", len(chunks))
	}
	if chunks[2][1] != 10 {
		t.Fatalf("k=1: chunks do not cover the list: %v", chunks)
	}
}

// TestBitmapEachIntersectionZeroAlloc asserts the pooled accumulator
// keeps steady-state EachIntersection calls allocation-free.
func TestBitmapEachIntersectionZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are nondeterministic under the race detector")
	}
	src := randomSource(1, 1000, 12)
	ix := NewBitmapIndex(src, nil)
	var cands []itemset.Set
	for a := 0; a < 12; a++ {
		for b := a + 1; b < 12; b++ {
			cands = append(cands, itemset.New(itemset.Item(a), itemset.Item(b)))
		}
	}
	itemset.SortSets(cands)
	sink := 0
	// warm the pool
	ix.EachIntersection(cands, func(i int, words []uint64) { sink += popcount(words) })
	avg := testing.AllocsPerRun(20, func() {
		ix.EachIntersection(cands, func(i int, words []uint64) { sink += popcount(words) })
	})
	// < 1 tolerates a rare pool refill after a GC between runs.
	if avg >= 1 {
		t.Errorf("EachIntersection allocates %.1f per call in steady state, want 0", avg)
	}
	_ = sink
}
