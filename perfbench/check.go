package main

import (
	"fmt"
	"strings"
	"sync"

	"github.com/tarm-project/tarm/internal/minisql"
	"github.com/tarm-project/tarm/internal/tdb"
	"github.com/tarm-project/tarm/internal/tml"
)

// answer is the reference result of one statement: columns and rows
// rendered exactly as tarmd renders them.
type answer struct {
	cols []string
	rows [][]string
}

func render(res *minisql.Result) answer {
	return answer{cols: res.Cols, rows: tml.DisplayCells(res)}
}

// referenceExecutor is a TML executor with the hold-table cache
// disabled: every statement counts from scratch.
func referenceExecutor(db *tdb.DB) *tml.Executor {
	e := tml.NewExecutor(db)
	e.Cache = nil
	return e
}

// references executes every distinct statement once in process,
// outside timing, on two goroutines (the executor is safe for
// concurrent use).
func references(db *tdb.DB, stmts []string) (map[string]answer, error) {
	e := referenceExecutor(db)
	var distinct []string
	seen := make(map[string]bool)
	for _, s := range stmts {
		if !seen[s] {
			seen[s] = true
			distinct = append(distinct, s)
		}
	}
	refs := make(map[string]answer, len(distinct))
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	next := make(chan string)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				res, err := e.Exec(s)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("reference %q: %w", s, err)
				} else if err == nil {
					refs[s] = render(res)
				}
				mu.Unlock()
			}
		}()
	}
	for _, s := range distinct {
		next <- s
	}
	close(next)
	wg.Wait()
	return refs, firstErr
}

// sameRows compares two row sets cell for cell, in order.
func sameRows(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// firstDiff describes the first row where got and want differ.
func firstDiff(got, want [][]string) string {
	for i := 0; i < max(len(got), len(want)); i++ {
		var g, w []string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if !sameRows([][]string{g}, [][]string{w}) {
			return fmt.Sprintf(": row %d is %q, want %q", i, g, w)
		}
	}
	return ""
}

// hasPlantedRule reports whether a rule result holds the planted
// chips/beer rule in either direction.
func hasPlantedRule(a answer) bool {
	for _, row := range a.rows {
		if len(row) < 2 {
			continue
		}
		ante, cons := row[0], row[1]
		if (strings.Contains(ante, plantItemA) && strings.Contains(cons, plantItemB)) ||
			(strings.Contains(ante, plantItemB) && strings.Contains(cons, plantItemA)) {
			return true
		}
	}
	return false
}

// checkPlanted verifies, on the references, that the weekend rule
// shows in the CALENDARS and DURING results at the base support.
func checkPlanted(rep *report, sh shape, refs map[string]answer) {
	for _, t := range sh.tables {
		for _, s := range []string{calendarsStmt(t.name, baseSupport), duringStmt(t.name, baseSupport)} {
			if a, ok := refs[s]; ok {
				rep.check(hasPlantedRule(a), "planted weekend rule missing from %q", s)
			}
		}
	}
}
