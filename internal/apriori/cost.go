package apriori

// The backend rule. The flat bitmap counts every k≥2 pass: it won
// every measured shape (DESIGN §3 "Counting backends"). The one case it
// cannot serve is an index that does not fit: past maxBitmapBytes the
// hash tree, which keeps no index, runs instead.

// maxBitmapBytes bounds the memory of a flat bitmap index. A run whose
// frequent-item index would exceed it counts with the hash tree.
const maxBitmapBytes = 512 << 20

// CountStats summarises the shape of a counting run for Predict.
// Populate N (and Granules, if temporal) first, then AddItem once per
// distinct item.
type CountStats struct {
	// N is the number of transactions.
	N int
	// Items is the number of distinct (candidate-eligible) items.
	Items int
	// Occurrences is the total number of item occurrences retained.
	Occurrences int64
	// Granules is the number of time granules the counts are sliced
	// into; 1 (or 0) for non-temporal mining.
	Granules int
}

// AddItem records one distinct item occurring count times.
func (s *CountStats) AddItem(count int) {
	s.Items++
	s.Occurrences += int64(count)
}

// bitmapBytes is the size of a flat bitmap index over s: one
// ⌈N/64⌉-word bitmap per item.
func (s CountStats) bitmapBytes() int64 {
	return int64(s.Items) * int64((s.N+63)/64) * 8
}

// Predict is the backend rule for a run shaped like s: bitmap, unless
// its index would exceed maxBitmapBytes, in which case the hash tree.
func Predict(s CountStats) Backend {
	if s.bitmapBytes() > maxBitmapBytes {
		return BackendHashTree
	}
	return BackendBitmap
}

// Resolve maps the configured backend b to the one that counts a run
// shaped like s: auto applies Predict, the deprecated roaring name is
// bitmap, and naive, hashtree and bitmap run as given. Every counting
// path resolves through here, once per run.
func (b Backend) Resolve(s CountStats) Backend {
	switch b {
	case BackendAuto:
		return Predict(s)
	case BackendRoaring:
		return BackendBitmap
	}
	return b
}
