package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/tarm-project/tarm/internal/gen"
	"github.com/tarm-project/tarm/internal/itemset"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/timegran"
)

// tableSpec is one generated transaction table.
type tableSpec struct {
	name     string
	items    int     // item universe
	txPerDay int     // mean transactions per daily granule
	avgT     float64 // mean transaction size |T|
}

// shape is the data size of a run: the full reference shape, or the
// tiny one the smoke test uses.
type shape struct {
	days       int // daily granules per table
	tables     []tableSpec
	windows    int // the seed picks the first day among this many
	streamDays int // days generated past the end of s1 for ingest-subscribe
	tailDays   int // last days of s1 left in the WAL tail, not the checkpoint
	// The ingest appender posts one generated day every batchEvery.
	batchEvery time.Duration
}

// The four tables: s1 is the reference shape; s2 is dense (many
// frequent pairs, so the k≥3 passes matter); s3 is sparse (many L2
// candidates, few frequent); s4 has many short transactions, where the
// cost model picks roaring.
var shapes = map[string]shape{
	"full": {
		days: 365,
		tables: []tableSpec{
			{"s1", 500, 200, 10},
			{"s2", 200, 200, 10},
			{"s3", 2000, 200, 10},
			{"s4", 500, 400, 4},
		},
		windows:    120,
		streamDays: 250,
		tailDays:   7,
		batchEvery: 300 * time.Millisecond,
	},
	"tiny": {
		days: 28,
		tables: []tableSpec{
			{"s1", 60, 30, 6},
			{"s2", 30, 30, 6},
			{"s3", 200, 30, 6},
			{"s4", 60, 50, 4},
		},
		windows:    7,
		streamDays: 60,
		tailDays:   3,
		batchEvery: 100 * time.Millisecond,
	},
}

const (
	// catalogSeed seeds internal/gen for every table: tgen's default,
	// so s1 over the first window is the ROADMAP reference dataset.
	// Fixing the item catalog (the Quest patterns) keeps each table's
	// shape — frequent items, candidate counts, the backend the cost
	// model picks — the same for every run seed.
	catalogSeed   = 1998
	questPatterns = 200 // tgen's default pattern count
	questPatLen   = 4   // tgen's default |I|
	// The rule planted in every table: chips and beer bought together
	// on weekends.
	plantItemA   = "chips"
	plantItemB   = "beer"
	plantPattern = "weekday in (sat,sun)"
	plantIn      = 0.3
	plantOut     = 0.005
)

// genStart is the first generated day, tgen's default start.
var genStart = time.Date(1998, 1, 1, 0, 0, 0, 0, time.UTC)

// firstDay is the first day of a run's tables: the run seed picks which
// stretch of the generated stream the tables hold.
func (s shape) firstDay(seed int64) time.Time {
	w := int(seed % int64(s.windows))
	if w < 0 {
		w += s.windows
	}
	return genStart.AddDate(0, 0, w)
}

// maxItems is the largest item universe of a shape; item ids below it
// are named item0000… so every table shares one dictionary.
func (s shape) maxItems() int {
	m := 0
	for _, t := range s.tables {
		m = max(m, t.items)
	}
	return m
}

// internNames fills dict the way tgen does: background item names
// first, so generated ids resolve to them, then the planted items.
func internNames(dict *itemset.Dict, n int) itemset.Set {
	for i := 0; i < n; i++ {
		dict.Intern(fmt.Sprintf("item%04d", i))
	}
	return dict.InternAll(plantItemA, plantItemB)
}

// generate draws spec's stream with internal/gen from genStart until
// (excluding) end, planting the weekend rule over the item ids in
// planted, and returns its transactions from first on, in time order.
func generate(spec tableSpec, first, end time.Time, planted itemset.Set) ([]tdb.Tx, error) {
	pattern, err := timegran.ParsePattern(plantPattern)
	if err != nil {
		return nil, err
	}
	cfg := gen.TemporalConfig{
		Quest: gen.QuestConfig{
			NItems: spec.items, NPatterns: questPatterns,
			AvgTxLen: spec.avgT, AvgPatLen: questPatLen,
		},
		Start:        genStart,
		Granularity:  timegran.Day,
		NGranules:    int(end.Sub(genStart) / (24 * time.Hour)),
		TxPerGranule: spec.txPerDay,
		Rules: []gen.PlantedRule{{
			Name: "weekend", Items: planted, Pattern: pattern,
			PInside: plantIn, POutside: plantOut,
		}},
	}
	tbl, err := gen.GenerateTemporal(cfg, catalogSeed)
	if err != nil {
		return nil, err
	}
	var out []tdb.Tx
	tbl.Each(func(tx tdb.Tx) bool {
		if !tx.At.Before(first) {
			out = append(out, tx)
		}
		return true
	})
	sort.SliceStable(out, func(i, j int) bool { return out[i].At.Before(out[j].At) })
	return out, nil
}

// writeDataDir generates every table of sh for seed into a fresh tdb
// directory, as tgen -out would.
func writeDataDir(dir string, sh shape, seed int64) error {
	db, err := tdb.Open(dir)
	if err != nil {
		return err
	}
	planted := internNames(db.Dict(), sh.maxItems())
	first := sh.firstDay(seed)
	for _, spec := range sh.tables {
		txs, err := generate(spec, first, first.AddDate(0, 0, sh.days), planted)
		if err != nil {
			return err
		}
		dst, err := db.CreateTxTable(spec.name)
		if err != nil {
			return err
		}
		dst.AppendBatch(txs)
	}
	return db.Flush()
}

// streamTx is one transaction of the ingest stream, by item name.
// Its JSON form is a transaction of a POST /v1/append body.
type streamTx struct {
	At    time.Time `json:"at"`
	Items []string  `json:"items"`
	Day   int       `json:"-"` // the generated day it belongs to (late ones are stamped earlier)
}

// ingestData is s1 split for ingest-subscribe: the base days (the
// checkpoint plus the WAL tail) and the transactions that continue the
// table past its last day, in stream order.
type ingestData struct {
	base   []tdb.Tx // time order
	stream []streamTx
	dict   *itemset.Dict
}

// lateShare is the fraction of streamed transactions that arrive late,
// stamped up to a week in the past.
const lateShare = 0.02

// makeIngestData generates s1 for seed, as the read workloads see it,
// plus streamDays more days that become the stream.
func makeIngestData(sh shape, seed int64) (*ingestData, error) {
	dict := itemset.NewDict()
	planted := internNames(dict, sh.maxItems())
	first := sh.firstDay(seed)
	cut := first.AddDate(0, 0, sh.days)
	all, err := generate(sh.tables[0], first, cut.AddDate(0, 0, sh.streamDays), planted)
	if err != nil {
		return nil, err
	}
	d := &ingestData{dict: dict}
	r := rand.New(rand.NewSource(seed ^ 0x51ab))
	for _, tx := range all {
		if tx.At.Before(cut) {
			d.base = append(d.base, tx)
			continue
		}
		st := streamTx{At: tx.At, Items: names(dict, tx.Items), Day: int(tx.At.Sub(cut) / (24 * time.Hour))}
		if r.Float64() < lateShare {
			st.At = st.At.Add(-time.Duration(1+r.Intn(7)) * 24 * time.Hour)
		}
		d.stream = append(d.stream, st)
	}
	return d, nil
}

func names(dict *itemset.Dict, s itemset.Set) []string {
	out := make([]string, len(s))
	for i, it := range s {
		out[i] = dict.MustName(it)
	}
	return out
}

// prepareDurableDir writes the ingest base into dir as tarmd -wal
// leaves it after a crash: a checkpoint of all but the last tailDays
// days, then those days appended to the WAL, one append per day, and
// the process killed before the next checkpoint.
func prepareDurableDir(dir string, sh shape, d *ingestData) error {
	db, err := tdb.OpenDurable(dir, tdb.Durability{Fsync: tdb.FsyncOff})
	if err != nil {
		return err
	}
	defer db.Kill()
	tbl, err := db.CreateTxTable("s1")
	if err != nil {
		return err
	}
	// The dictionary gets tgen's id order, as every other database of
	// the run has it.
	internNames(db.Dict(), sh.maxItems())
	conv := func(txs []tdb.Tx) []tdb.Tx {
		out := make([]tdb.Tx, len(txs))
		for i, tx := range txs {
			out[i] = tdb.Tx{At: tx.At, Items: db.Dict().InternAll(names(d.dict, tx.Items)...)}
		}
		return out
	}
	tail := d.base[len(d.base)-1].At.Truncate(24*time.Hour).AddDate(0, 0, 1-sh.tailDays)
	i := sort.Search(len(d.base), func(i int) bool { return !d.base[i].At.Before(tail) })
	if _, _, err := tbl.AppendBatchDurable(conv(d.base[:i])); err != nil {
		return err
	}
	if _, err := db.Checkpoint(); err != nil {
		return err
	}
	for lo := i; lo < len(d.base); {
		day := timegran.GranuleOf(d.base[lo].At, timegran.Day)
		hi := lo
		for hi < len(d.base) && timegran.GranuleOf(d.base[hi].At, timegran.Day) == day {
			hi++
		}
		if _, _, err := tbl.AppendBatchDurable(conv(d.base[lo:hi])); err != nil {
			return err
		}
		lo = hi
	}
	return nil
}
