package main

import "fmt"

// The statements of the two read workloads. Every one mines at day
// granularity with confidence 0.5, so statements over one table share
// a single hold-table cache key and differ only in support, MaxK and
// task.

const (
	baseSupport = 0.05
	confidence  = 0.5
)

func periodsStmt(table string, support float64) string {
	return fmt.Sprintf("MINE PERIODS FROM %s AT GRANULARITY day THRESHOLD SUPPORT %g CONFIDENCE %g FREQUENCY 0.8 MIN LENGTH 3",
		table, support, confidence)
}

func cyclesStmt(table string, support float64) string {
	return fmt.Sprintf("MINE CYCLES FROM %s AT GRANULARITY day THRESHOLD SUPPORT %g CONFIDENCE %g MAX LENGTH 14 MIN REPS 4",
		table, support, confidence)
}

func calendarsStmt(table string, support float64) string {
	return fmt.Sprintf("MINE CALENDARS FROM %s AT GRANULARITY day THRESHOLD SUPPORT %g CONFIDENCE %g FREQUENCY 0.8 MIN REPS 4",
		table, support, confidence)
}

func duringStmt(table string, support float64) string {
	return fmt.Sprintf("MINE RULES FROM %s DURING '%s' AT GRANULARITY day THRESHOLD SUPPORT %g CONFIDENCE %g",
		table, plantPattern, support, confidence)
}

func historyStmt(table string, support float64) string {
	return fmt.Sprintf("MINE HISTORY FROM %s RULE '%s => %s' AT GRANULARITY day THRESHOLD SUPPORT %g CONFIDENCE %g",
		table, plantItemA, plantItemB, support, confidence)
}

func limited(stmt string, n int) string { return fmt.Sprintf("%s LIMIT %d", stmt, n) }

// coldCycle is the cold-mine rotation: every table × the four
// discovery tasks, ordered so consecutive statements (the wrap
// included) go to different tables. Cycling through more hold-table
// bytes than the 1 MiB cache holds makes every lookup an LRU miss.
// The seed only shifts which task each table starts on.
func coldCycle(sh shape, seed int64) []string {
	tasks := []func(string, float64) string{periodsStmt, cyclesStmt, calendarsStmt, duringStmt}
	n := len(sh.tables)
	off := int(seed % int64(len(tasks)))
	if off < 0 {
		off += len(tasks)
	}
	var out []string
	for i := 0; i < n*len(tasks); i++ {
		t := sh.tables[i%n].name
		out = append(out, tasks[(i/n+off)%len(tasks)](t, baseSupport))
	}
	return out
}

// warmSet is the warm-session statement set: per table, exact hits on
// the warm-up build (support 0.05) and rethresholds at 0.08–0.12 over
// all five tasks, including the planted rule's history and some
// LIMITs. None of them needs counting once warmUp has run.
func warmSet(sh shape) []string {
	var out []string
	for _, t := range sh.tables {
		out = append(out,
			periodsStmt(t.name, baseSupport),
			limited(periodsStmt(t.name, 0.08), 25),
			periodsStmt(t.name, 0.12),
			cyclesStmt(t.name, baseSupport),
			cyclesStmt(t.name, 0.1),
			calendarsStmt(t.name, baseSupport),
			limited(calendarsStmt(t.name, 0.12), 10),
			duringStmt(t.name, baseSupport),
			duringStmt(t.name, 0.1),
			historyStmt(t.name, baseSupport),
		)
	}
	return out
}

// warmUp is the statement that fills the cache for one table: the
// lowest support of the warm set, unbounded itemset size, so every
// warm statement is served by a hit or a rethreshold.
func warmUp(table string) string { return periodsStmt(table, baseSupport) }

// ingestStmt is the standing statement of ingest-subscribe; its
// one-shot form is the reference the delta fold is checked against.
func ingestStmt() string { return "SUBSCRIBE " + periodsStmt("s1", baseSupport) }
