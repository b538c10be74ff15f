package apriori

import (
	"fmt"
	"strings"
	"sync"

	"github.com/tarm-project/tarm/internal/itemset"
)

// Backend selects the support-counting strategy of the level-wise
// miner. The zero value is BackendAuto.
type Backend int

const (
	// BackendAuto resolves per run through Predict: bitmap, or the hash
	// tree when the bitmap index would not fit.
	BackendAuto Backend = iota
	// BackendNaive tests every candidate against every transaction; it
	// is the reference the others are property-tested against.
	BackendNaive
	// BackendHashTree is the classic Apriori hash tree: one pass per
	// level over the transactions, visiting only plausible candidates.
	BackendHashTree
	// BackendBitmap is the vertical representation: per-item TID
	// bitmaps intersected with word-parallel AND + popcount.
	BackendBitmap
	// BackendRoaring names the removed compressed-container backend.
	// Deprecated: it resolves to BackendBitmap before any counter is
	// built; ParseBackend maps "roaring" to BackendBitmap.
	BackendRoaring
)

// Valid reports whether b names a known backend.
func (b Backend) Valid() bool { return b >= BackendAuto && b <= BackendRoaring }

// String returns the flag-friendly name.
func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendNaive:
		return "naive"
	case BackendHashTree:
		return "hashtree"
	case BackendBitmap:
		return "bitmap"
	case BackendRoaring:
		return "roaring"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// ParseBackend parses a backend name as used by the -backend CLI flag.
// The empty string means auto.
func ParseBackend(s string) (Backend, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return BackendAuto, nil
	case "naive":
		return BackendNaive, nil
	case "hashtree", "tree":
		return BackendHashTree, nil
	case "bitmap", "vertical", "eclat", "roaring", "compressed":
		return BackendBitmap, nil
	}
	return 0, fmt.Errorf("apriori: unknown counting backend %q (want auto, naive, hashtree or bitmap)", s)
}

// Counter counts the support of one level of equal-length candidates
// against a fixed transaction source. Mine builds one Counter per run
// and calls CountLevel once per level, so a backend can amortise work
// across levels — the bitmap backend ingests the source into its index
// on first use and never rescans.
type Counter interface {
	// CountLevel returns one support count per candidate. All
	// candidates have length k and arrive in canonical sorted order.
	CountLevel(cands []itemset.Set, k int) ([]int, error)
}

type naiveCounter struct{ src Source }

func (c naiveCounter) CountLevel(cands []itemset.Set, k int) ([]int, error) {
	return CountSetsNaive(c.src, cands), nil
}

type hashTreeCounter struct {
	src          Source
	fanout, leaf int
}

func (c hashTreeCounter) CountLevel(cands []itemset.Set, k int) ([]int, error) {
	tree, err := NewHashTree(cands, k, c.fanout, c.leaf)
	if err != nil {
		return nil, err
	}
	c.src.ForEach(tree.Add)
	out := make([]int, len(tree.counts))
	copy(out, tree.counts)
	return out, nil
}

type bitmapCounter struct {
	src     Source
	keep    map[itemset.Item]bool
	workers int

	once sync.Once
	ix   *BitmapIndex
}

func (c *bitmapCounter) CountLevel(cands []itemset.Set, k int) ([]int, error) {
	c.once.Do(func() { c.ix = NewBitmapIndex(c.src, c.keep) })
	return c.ix.CountSetsParallel(cands, c.workers), nil
}

// newCounter builds the counter for src given the level-1 result: l1
// carries the frequent 1-itemsets with their counts, from which the
// backend is resolved and the bitmap index keeps only items that can
// appear in a candidate. The resolved backend is returned alongside so
// the caller can report what ran.
func (c Config) newCounter(src Source, l1 []ItemsetCount) (Counter, Backend, error) {
	if !c.Backend.Valid() {
		return nil, c.Backend, fmt.Errorf("apriori: invalid counting backend %d", int(c.Backend))
	}
	stats := CountStats{N: src.Len(), Granules: 1}
	for _, ic := range l1 {
		stats.AddItem(ic.Count)
	}
	b := c.Backend.Resolve(stats)
	switch b {
	case BackendNaive:
		return naiveCounter{src: src}, b, nil
	case BackendBitmap:
		return &bitmapCounter{src: src, keep: keepItems(l1), workers: c.Workers}, b, nil
	default:
		return hashTreeCounter{src: src, fanout: c.Fanout, leaf: c.LeafSize}, b, nil
	}
}

// keepItems collects the frequent items of a level-1 result, the
// ingest filter of the bitmap index.
func keepItems(l1 []ItemsetCount) map[itemset.Item]bool {
	keep := make(map[itemset.Item]bool, len(l1))
	for _, ic := range l1 {
		keep[ic.Set[0]] = true
	}
	return keep
}
