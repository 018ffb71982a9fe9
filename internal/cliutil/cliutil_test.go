package cliutil

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"varpower/internal/obs"
	"varpower/internal/telemetry"
)

func parse(t *testing.T, args ...string) *Obs {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o := AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o
}

func TestFlagRegistration(t *testing.T) {
	o := parse(t, "-metrics", "out.json", "-telemetry", "-quiet", "-v")
	if o.metricsPath != "out.json" || !o.spans || !o.quiet || !o.verbose {
		t.Fatalf("flags not parsed: %+v", o)
	}
	if o.Verbose() {
		t.Fatal("-quiet must override -v")
	}
	if o.Progress() != nil {
		t.Fatal("Progress must be nil when not verbose")
	}
}

func TestCloseWritesMetricsFileByExtension(t *testing.T) {
	telemetry.Default().Counter("cliutil_test_total", "", nil).Inc()
	dir := t.TempDir()
	cases := []struct {
		file string
		want string // marker that identifies the encoding
	}{
		{"m.prom", "# TYPE cliutil_test_total counter"},
		{"m.json", `"name": "cliutil_test_total"`},
		{"m.csv", "name,type,labels,field,value"},
	}
	for _, c := range cases {
		path := filepath.Join(dir, c.file)
		o := parse(t, "-metrics", path, "-quiet")
		if err := o.Start("test"); err != nil {
			t.Fatal(err)
		}
		if err := o.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(b), c.want) {
			t.Fatalf("%s: output lacks %q:\n%s", c.file, c.want, b)
		}
	}
}

func TestCloseMetricsWriteFailureSurfaces(t *testing.T) {
	o := parse(t, "-metrics", filepath.Join(t.TempDir(), "no/such/dir/m.prom"), "-quiet")
	if err := o.Start("test"); err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err == nil {
		t.Fatal("unwritable -metrics path must error")
	}
}

func TestHTTPEndpointServesMetrics(t *testing.T) {
	o := parse(t, "-http", "127.0.0.1:0", "-quiet")
	if err := o.Start("test"); err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if o.httpSrv == nil {
		t.Fatal("HTTP server not started")
	}
}

func TestProgressFinalAlwaysPrints(t *testing.T) {
	o := parse(t, "-v")
	o.cmd = "test"
	p := o.Progress()
	if p == nil {
		t.Fatal("verbose Progress must be non-nil")
	}
	// Rapid-fire updates: intermediate calls are rate-limited (untestable
	// without stderr capture), but the done==total call must not panic and
	// must reset no state that breaks a following stage.
	for i := 1; i <= 10; i++ {
		p("stage-a", i, 10)
	}
	p("stage-b", 1, 1)
	if fn := o.ProgressFunc("stage-c"); fn == nil {
		t.Fatal("ProgressFunc must be non-nil under -v")
	} else {
		fn(1, 1)
	}
}

// captureStderr runs fn with os.Stderr redirected and returns what it wrote.
func captureStderr(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = w
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	defer func() { os.Stderr = saved }()
	fn()
	w.Close()
	return <-out
}

// TestTelemetrySummaryCountsEveryPhase: the -telemetry summary is read from
// the phase-duration histogram, so a phase that starts after tens of
// thousands of spans still gets its row and every row its full count.
func TestTelemetrySummaryCountsEveryPhase(t *testing.T) {
	suffix := fmt.Sprint(time.Now().UnixNano()) // fresh rows under -count
	bulk, late := "cliutil.bulk"+suffix, "cliutil.late"+suffix
	const n = 20000
	for i := 0; i < n; i++ {
		_, sp := obs.StartSpan(context.Background(), bulk)
		sp.End()
	}
	_, sp := obs.StartSpan(context.Background(), late)
	sp.End()

	o := parse(t, "-telemetry")
	if err := o.Start("test"); err != nil {
		t.Fatal(err)
	}
	out := captureStderr(t, func() {
		if err := o.Close(); err != nil {
			t.Error(err)
		}
	})
	for phase, count := range map[string]int{bulk: n, late: 1} {
		row := regexp.MustCompile(`(?m)^` + phase + ` +` + fmt.Sprint(count) + ` `)
		if !row.MatchString(out) {
			t.Errorf("summary lacks %s with count %d:\n%s", phase, count, out)
		}
	}
}
