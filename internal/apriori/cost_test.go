package apriori

// Backend-rule tests: bitmap everywhere, the hash tree only once the
// frequent-item bitmap index would exceed maxBitmapBytes.

import "testing"

// statsOf builds CountStats for items distinct items of count
// occurrences each over n transactions.
func statsOf(n, items, count int) CountStats {
	s := CountStats{N: n, Granules: 1}
	for i := 0; i < items; i++ {
		s.AddItem(count)
	}
	return s
}

func TestCountStatsAddItem(t *testing.T) {
	s := CountStats{N: 1000}
	s.AddItem(600)
	s.AddItem(300)
	s.AddItem(2)
	if s.Items != 3 || s.Occurrences != 902 {
		t.Fatalf("Items=%d Occurrences=%d, want 3, 902", s.Items, s.Occurrences)
	}
	if got, want := s.bitmapBytes(), int64(3*16*8); got != want {
		t.Fatalf("bitmapBytes = %d, want %d (3 items × 16 words × 8 bytes)", got, want)
	}
}

func TestPredict(t *testing.T) {
	// A bound-sized universe: 2^26 rows is 2^20 words, 8 MiB per item,
	// so 64 items fill maxBitmapBytes exactly.
	const boundN = 1 << 26
	cases := []struct {
		name  string
		stats CountStats
		want  Backend
	}{
		// 365 days × 400 tx with ~160 frequent items: the benchmark's
		// s4 shape (|T|=4).
		{"realistic", statsOf(365*400, 160, 365*400/40), BackendBitmap},
		{"at the bound", statsOf(boundN, 64, 1<<20), BackendBitmap},
		{"one item past the bound", statsOf(boundN, 65, 1<<20), BackendHashTree},
		{"one row past the bound", statsOf(boundN+1, 64, 1<<20), BackendHashTree},
	}
	for _, c := range cases {
		if got := Predict(c.stats); got != c.want {
			t.Errorf("%s: Predict(%+v) = %v, want %v (index %d bytes, bound %d)",
				c.name, c.stats, got, c.want, c.stats.bitmapBytes(), maxBitmapBytes)
		}
	}
}

// wantAutoPick checks that both Predict and an auto backend resolve a
// run shaped like s to want.
func wantAutoPick(t *testing.T, name string, s CountStats, want Backend) {
	t.Helper()
	if got := Predict(s); got != want {
		t.Errorf("%s: Predict(%+v) = %v, want %v", name, s, got, want)
	}
	if got := BackendAuto.Resolve(s); got != want {
		t.Errorf("%s: auto resolved %+v to %v, want %v", name, s, got, want)
	}
}

func TestChooseBackendDense(t *testing.T) {
	// Items at density 1/4: the shape bitmap counting was built for.
	wantAutoPick(t, "dense", statsOf(1<<17, 64, 1<<15), BackendBitmap)
}

func TestChooseBackendSparse(t *testing.T) {
	// Items at density 1/4096 once went to the roaring backend; the
	// flat bitmap now counts them too.
	wantAutoPick(t, "sparse", statsOf(1<<20, 256, 1<<8), BackendBitmap)
}

func TestChooseBackendGuards(t *testing.T) {
	// Tiny and item-less runs need no special case: their index is
	// small, so auto resolves them to bitmap.
	wantAutoPick(t, "tiny n", statsOf(32, 5, 20), BackendBitmap)
	wantAutoPick(t, "no items", CountStats{N: 1 << 20}, BackendBitmap)
	wantAutoPick(t, "empty", CountStats{}, BackendBitmap)
	// naive is never an auto pick, whatever the shape.
	for _, s := range []CountStats{
		statsOf(1<<16, 8, 1<<14), statsOf(1<<16, 8, 16), statsOf(1<<28, 2000, 1<<20),
	} {
		if got := BackendAuto.Resolve(s); got == BackendNaive {
			t.Errorf("auto picked naive for %+v", s)
		}
	}
}

func TestChooseAutoLegacy(t *testing.T) {
	// The aggregate shapes the removed ChooseAuto entry point took
	// (transactions, items, occurrences) still resolve: the dense one
	// to bitmap and the tiny one, once the hash tree's, to bitmap.
	agg := func(n, items int, occ int64) CountStats {
		s := CountStats{N: n, Granules: 1}
		for i := 0; i < items; i++ {
			s.AddItem(int(occ / int64(items)))
		}
		return s
	}
	wantAutoPick(t, "legacy dense", agg(1<<17, 64, int64(1<<17)*64/4), BackendBitmap)
	wantAutoPick(t, "legacy tiny", agg(32, 5, 96), BackendBitmap)
}

func TestBitmapCostCapacityGuard(t *testing.T) {
	// A universe whose bitmap index would exceed maxBitmapBytes must
	// resolve auto to the hash tree; a forced backend runs as given.
	s := statsOf(1<<28, 2000, 1<<20)
	if s.bitmapBytes() <= maxBitmapBytes {
		t.Fatalf("fixture index %d bytes does not exceed the bound", s.bitmapBytes())
	}
	if got := BackendAuto.Resolve(s); got != BackendHashTree {
		t.Errorf("oversized auto resolved to %v, want hashtree", got)
	}
	for _, b := range []Backend{BackendNaive, BackendHashTree, BackendBitmap} {
		if got := b.Resolve(s); got != b {
			t.Errorf("forced %v resolved to %v", b, got)
		}
	}
	if got := BackendRoaring.Resolve(s); got != BackendBitmap {
		t.Errorf("roaring resolved to %v, want bitmap", got)
	}
}
