package server

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"github.com/tarm-project/tarm/internal/clihelp"
	"github.com/tarm-project/tarm/internal/core"
)

// postBody sends body to path with the given content type and request
// ID, returning the status and response body.
func postBody(t *testing.T, url, path, contentType, rid string, body io.Reader) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+path, body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	if rid != "" {
		req.Header.Set("X-Request-ID", rid)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// checkTooLarge asserts the uniform 413 error body.
func checkTooLarge(t *testing.T, code int, body string) {
	t.Helper()
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %.200s", code, body)
	}
	e := decodeError(t, body)
	if !strings.Contains(e.Error, "request body too large") || e.RequestID == "" {
		t.Errorf("413 body = %+v, want a too-large message and a request id", e)
	}
	if strings.Contains(body, `"rows"`) {
		t.Errorf("413 body carries rows: %.200s", body)
	}
}

// repeatLines streams line over and over without holding the stream
// in memory. Every whole line is a valid basket row, so only the size
// limit can fail the import; long rows keep the row count, and with it
// the parse cost, small.
type repeatLines struct {
	line string
	off  int
}

func (r *repeatLines) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		c := copy(p[n:], r.line[r.off:])
		n += c
		r.off = (r.off + c) % len(r.line)
	}
	return n, nil
}

// TestStatementBodyTooLarge: a statement padded past the body limit
// must not lose its tail (here LIMIT 1) and run anyway. It is refused
// with 413 and never executed: no rows, no journal record, no
// hold-table build.
func TestStatementBodyTooLarge(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	stmt := strings.TrimSuffix(testStatements[1], ";") + strings.Repeat(" ", maxBody) + " LIMIT 1;"
	code, body := postBody(t, ts.URL, "/v1/statements", "text/plain", "oversized", strings.NewReader(stmt))
	checkTooLarge(t, code, body)
	if code, _ := getJSON(t, ts.URL+"/v1/queries/oversized", nil); code != http.StatusNotFound {
		t.Errorf("journal has a record of the oversized statement (status %d)", code)
	}
	if n := s.Journal().Total(); n != 0 {
		t.Errorf("journal total = %d, want 0", n)
	}
	if st := s.Executor().Cache.Stats(); st.Misses != 0 {
		t.Errorf("cache misses = %d: the oversized statement ran", st.Misses)
	}
}

// TestSubscribeBodyTooLarge: an oversized SUBSCRIBE body is 413 and
// registers nothing.
func TestSubscribeBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	stmt := "SUBSCRIBE " + strings.TrimSuffix(testStatements[1], ";") + strings.Repeat(" ", maxBody)
	code, body := postBody(t, ts.URL, "/v1/subscriptions", "text/plain", "", strings.NewReader(stmt))
	checkTooLarge(t, code, body)
	var subs []subView
	if code, _ := getJSON(t, ts.URL+"/v1/subscriptions", &subs); code != http.StatusOK || len(subs) != 0 {
		t.Errorf("subscriptions after a refused register = %+v (status %d), want none", subs, code)
	}
}

// TestAppendBodyTooLarge: an append batch past the limit is 413, not a
// misleading "bad JSON" 400, and no row lands.
func TestAppendBodyTooLarge(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	tbl, _ := s.db.TxTable("baskets")
	before := tbl.Len()
	valid := appendBody(3, "bread", "milk")
	padded := valid[:len(valid)-1] + strings.Repeat(" ", maxAppendBody) + "}"
	code, body := postBody(t, ts.URL, "/v1/append", "application/json", "", strings.NewReader(padded))
	checkTooLarge(t, code, body)
	if tbl.Len() != before {
		t.Errorf("table grew from %d to %d rows on a refused append", before, tbl.Len())
	}
}

// TestImportBodyTooLarge: a CSV import past the limit is 413 and
// creates nothing.
func TestImportBodyTooLarge(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	line := "2024-01-01 12:00:00," + strings.Repeat("b", 4000) + "\n"
	body := io.LimitReader(&repeatLines{line: line}, maxImportBody+int64(len(line)))
	code, raw := postBody(t, ts.URL, "/v1/import?table=loaded", "text/csv", "", body)
	checkTooLarge(t, code, raw)
	if _, ok := s.db.TxTable("loaded"); ok {
		t.Error("a refused import created its table")
	}
}

// TestCacheDisabledFlag: tarmd -cache 0 must run without a hold-table
// cache — GET /v1/cache shows none and every repeat is a cold build —
// rather than fall back to server.Config's default budget.
func TestCacheDisabledFlag(t *testing.T) {
	mf := clihelp.MiningFlags{CacheMB: 0}
	s, ts := newTestServer(t, Config{CacheBytes: mf.CacheBytes()})
	if s.Executor().Cache != nil {
		t.Fatal("-cache 0 built a cache")
	}
	for i := 0; i < 3; i++ {
		rid := fmt.Sprintf("nocache-%d", i)
		if code, _, body := postWithID(t, ts.URL, testStatements[1], rid); code != http.StatusOK {
			t.Fatalf("statement status %d: %s", code, body)
		}
		if rec, _ := s.Journal().Get(rid); rec == nil || rec.Cache != "cold" {
			t.Errorf("run %d journaled %+v, want cache cold", i, rec)
		}
	}
	var view struct {
		Stats   core.CacheStats  `json:"stats"`
		Entries []core.EntryInfo `json:"entries"`
	}
	if code, _ := getJSON(t, ts.URL+"/v1/cache", &view); code != http.StatusOK {
		t.Fatalf("GET /v1/cache status %d", code)
	}
	if view.Stats != (core.CacheStats{}) || len(view.Entries) != 0 {
		t.Errorf("cache view = %+v, want no cache", view)
	}
}
