package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestSmoke runs every workload at the tiny shape with a fixed seed,
// untraced and traced, and checks that every end-to-end and per-layer
// metric is emitted with its unit and that no operation failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds tarmd and runs every workload")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "tarmd")
	if out, err := exec.Command("go", "build", "-o", bin, "github.com/tarm-project/tarm/cmd/tarmd").CombinedOutput(); err != nil {
		t.Fatalf("build tarmd: %v\n%s", err, out)
	}
	for _, w := range []string{"cold-mine", "warm-session", "ingest-subscribe"} {
		for _, trace := range []int{0, 1} {
			t.Run(fmt.Sprintf("%s/trace=%d", w, trace), func(t *testing.T) {
				var out bytes.Buffer
				code := run([]string{
					"--workload", w, "--seed", "7", "--seconds", "1", "--trace", fmt.Sprint(trace),
					"--size", "tiny", "--tarmd", bin, "--work", filepath.Join(dir, "work"),
				}, &out)
				text := out.String()
				if code != 0 {
					t.Fatalf("exit %d:\n%s", code, text)
				}
				lines := strings.Split(strings.TrimSpace(text), "\n")
				var res resultOut
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, text)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, text)
				}
				want := map[string]string{}
				if trace == 1 {
					for _, m := range perLayer {
						want[m.name] = m.unit
					}
				} else {
					for _, m := range endToEnd {
						want[m.name] = m.unit
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					if m, ok := res.Metrics[name]; !ok || m.Unit != unit {
						t.Errorf("metric %s = %+v, want unit %s", name, m, unit)
					}
				}
				// The text report names each workload's own end-to-end
				// metrics with their units, fail_ratio 0 among them.
				own := []string{"stmt_p50_ms", "stmt_p90_ms", "stmt_p95_ms", "stmt_per_s", "stmt_cpu_ms"}
				if w == "ingest-subscribe" {
					own = []string{"append_p50_ms", "append_p90_ms", "append_p95_ms", "append_per_s", "append_cpu_ms",
						"close_to_delta_p50_ms", "close_to_delta_p90_ms"}
				}
				for _, name := range append(own, "setup_s", "setup_wall_s", "rss_mb") {
					line := regexp.MustCompile(fmt.Sprintf(`(?m)^%s %s [0-9.]+ %s$`, w, name, regexp.QuoteMeta(units[name])))
					if !line.MatchString(text) {
						t.Errorf("text report lacks %s with its unit %q", name, units[name])
					}
				}
				if !strings.Contains(text, w+" fail_ratio 0.0000 ratio") {
					t.Errorf("fail_ratio is not 0:\n%s", text)
				}
			})
		}
	}
}
