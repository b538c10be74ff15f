package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// server is one running tarmd process.
type server struct {
	cmd     *exec.Cmd
	url     string
	log     string
	started time.Time
	exited  chan error
}

// startServer execs tarmd on a free loopback port. The caller must
// kill it.
func startServer(bin, logPath string, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	full := append([]string{"-addr", addr}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	s := &server{cmd: cmd, url: "http://" + addr, log: logPath, exited: make(chan error, 1)}
	s.started = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("exec tarmd: %w", err)
	}
	go func() {
		s.exited <- cmd.Wait()
		logf.Close()
	}()
	return s, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// waitHealthy polls /healthz until the server answers 200.
func (s *server) waitHealthy(c *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case err := <-s.exited:
			s.exited <- err
			return fmt.Errorf("tarmd exited during start-up (%v): %s", err, s.logTail())
		default:
		}
		resp, err := c.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("tarmd not healthy after %s: %s", timeout, s.logTail())
}

func (s *server) logTail() string {
	b, _ := os.ReadFile(s.log)
	if len(b) > 400 {
		b = b[len(b)-400:]
	}
	return strings.TrimSpace(string(b))
}

// cpuSeconds reads the CPU time the process's threads have run, from
// the scheduler's per-thread accounting (nanoseconds). Time the
// hypervisor stole from the VM is not in it, which makes it steadier
// than wall time on a shared host.
func (s *server) cpuSeconds() (float64, error) {
	files, err := filepath.Glob(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "task", "*", "schedstat"))
	if err != nil || len(files) == 0 {
		return 0, fmt.Errorf("no schedstat for tarmd: %v", err)
	}
	total := 0.0
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue // the thread exited
		}
		ns, _, _ := strings.Cut(string(b), " ")
		v, err := strconv.ParseFloat(ns, 64)
		if err != nil {
			return 0, fmt.Errorf("bad schedstat %s: %w", f, err)
		}
		total += v
	}
	return total / 1e9, nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// kill ends the server at once, like kill -9, and waits for it to
// exit. The benchmark discards the server's directory, so there is
// nothing to drain or checkpoint.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	<-s.exited
}

// newClient is the load generator's HTTP client: keep-alive
// connections, at most max(nproc, 2) of them to the server (the ingest
// workload holds one long-poll beside its appender).
func newClient() *http.Client {
	conns := max(runtime.NumCPU(), 2)
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
		Timeout: 120 * time.Second,
	}
}

// httpError is a non-2xx answer.
type httpError struct {
	code int
	body string
}

func (e *httpError) Error() string { return fmt.Sprintf("status %d: %s", e.code, e.body) }

// doJSON sends a request and decodes a 2xx JSON answer into out.
func doJSON(c *http.Client, method, url string, body any, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeOK(resp, out)
}

// decodeOK decodes a 2xx JSON body into out (nil: discard it).
func decodeOK(resp *http.Response, out any) error {
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return &httpError{code: resp.StatusCode, body: strings.TrimSpace(string(b))}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(b, out)
}

// stmtAnswer is the slice of the POST /v1/statements answer the
// benchmark reads.
type stmtAnswer struct {
	Cols   []string   `json:"cols"`
	Rows   [][]string `json:"rows"`
	WallMS float64    `json:"wall_ms"`
}

func postStatement(c *http.Client, url, stmt string) (*stmtAnswer, error) {
	var a stmtAnswer
	err := doJSON(c, http.MethodPost, url+"/v1/statements", map[string]string{"statement": stmt}, &a)
	return &a, err
}

// cacheStats is the counter part of GET /v1/cache.
type cacheStats struct {
	Hits         int64 `json:"hits"`
	Rethresholds int64 `json:"rethresholds"`
	Misses       int64 `json:"misses"`
	Dedups       int64 `json:"dedups"`
	Deltas       int64 `json:"deltas"`
	Entries      int   `json:"entries"`
}

func getCacheStats(c *http.Client, url string) (cacheStats, error) {
	var v struct {
		Stats cacheStats `json:"stats"`
	}
	err := doJSON(c, http.MethodGet, url+"/v1/cache", nil, &v)
	return v.Stats, err
}

// hitRatio is the share of cache lookups served from a resident entry
// (exact hits and rethresholds) among all lookups.
func (a cacheStats) hitRatio(before cacheStats) float64 {
	hits := (a.Hits - before.Hits) + (a.Rethresholds - before.Rethresholds)
	all := hits + (a.Misses - before.Misses) + (a.Dedups - before.Dedups) + (a.Deltas - before.Deltas)
	if all == 0 {
		return 0
	}
	return float64(hits) / float64(all)
}

// metricValue reads one unlabelled sample from GET /metrics.
func metricValue(c *http.Client, url, name string) (float64, error) {
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && f[0] == name {
			return strconv.ParseFloat(f[1], 64)
		}
	}
	return 0, sc.Err()
}
