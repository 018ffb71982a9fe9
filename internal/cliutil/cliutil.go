// Package cliutil gives the four commands (varsim, pvtgen, powbudget,
// varsched) one consistent observability and verbosity surface instead of
// the previous per-command ad-hoc logging:
//
//	-metrics FILE   write the telemetry registry at exit; the extension
//	                picks the encoding (.json → JSON, .csv → CSV,
//	                anything else → Prometheus text format)
//	-telemetry      print the per-phase timing summary to stderr at exit
//	-http ADDR      serve /metrics, /spans, /debug/vars and /debug/pprof
//	                for the duration of the run (long sweeps)
//	-quiet          suppress progress and informational stderr output
//	-v              verbose: live completed/total progress lines and the
//	                run's span tree with -telemetry
//	-log-level LVL  emit structured JSON logs (log/slog) on stderr at LVL
//	                (debug, info, warn, error); off by default so the
//	                -quiet contract (empty stderr) holds
//
// All of it is presentation-layer only: none of these flags can change a
// rendered artifact or a simulated result.
//
// Every command run is one trace (internal/obs) whose root span, Trace, the
// command hands on next to the recorder; -v and /spans print its tree. The
// -telemetry summary is read from the phase-duration histogram, which
// every span feeds, traced or not.
//
// The one deliberate exception is -faults FILE, which loads a deterministic
// fault-injection plan (internal/faults) and hands it to the command to
// install on its systems — a shared way to run any command against the same
// failing hardware.
//
// -attrib FILE enables the continuous power-attribution collector
// (internal/attrib): the command hands it to its measured runs, and Close
// exports the per-job energy ledger and per-module drift table (.json →
// indented JSON, anything else → CSV). -attrib-hz tunes the collector's
// virtual-time sampling rate. Like -record, attribution observes runs
// without changing any simulated result.
package cliutil

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"varpower/internal/attrib"
	"varpower/internal/faults"
	"varpower/internal/flight"
	"varpower/internal/obs"
	"varpower/internal/telemetry"
)

// Obs is the parsed observability flag set of one command.
type Obs struct {
	metricsPath string
	httpAddr    string
	spans       bool
	quiet       bool
	verbose     bool
	recordPath  string
	recordHz    float64
	faultsPath  string
	attribPath  string
	attribHz    float64
	logLevel    string

	cmd       string
	logger    *slog.Logger
	recorder  *flight.Recorder
	collector *attrib.Collector
	faultPlan *faults.Plan
	trace     *obs.RequestTrace
	httpSrv   *telemetry.Server
	progMu    sync.Mutex
	progLast  time.Time
	progStage string
}

// AddFlags registers the shared observability flags on fs (use flag
// .CommandLine from main) and returns the handle the command finishes
// with. Call Start after flag parsing and defer Close.
func AddFlags(fs *flag.FlagSet) *Obs {
	o := &Obs{}
	fs.StringVar(&o.metricsPath, "metrics", "", "write telemetry metrics to this file at exit (.prom/.txt = Prometheus text, .json = JSON, .csv = CSV)")
	fs.StringVar(&o.httpAddr, "http", "", "serve a debug endpoint on this address for the duration of the run (/metrics, /spans, /debug/pprof, /debug/vars)")
	fs.BoolVar(&o.spans, "telemetry", false, "print the per-phase timing summary to stderr at exit")
	fs.BoolVar(&o.quiet, "quiet", false, "suppress progress and informational stderr output")
	fs.BoolVar(&o.verbose, "v", false, "verbose stderr output (live progress lines; the run's span tree with -telemetry)")
	fs.StringVar(&o.recordPath, "record", "", "write a flight-recorder timeline of the serially executed runs to this file at exit (.trace/.json = Chrome trace-event JSON for Perfetto, .csv = samples CSV plus a .phases.csv companion, .html = self-contained timeline page); the analyzer report accompanies it as <path>.report.txt")
	fs.Float64Var(&o.recordHz, "record-hz", flight.DefaultHz, "flight-recorder sampling rate in samples per simulated second (negative disables samples, keeping phases and events)")
	fs.StringVar(&o.faultsPath, "faults", "", "load a deterministic fault-injection plan (JSON, see internal/faults) and install it on the command's systems")
	fs.StringVar(&o.attribPath, "attrib", "", "run the continuous power-attribution collector over the command's measured runs and write its report to this file at exit (.json = indented JSON, anything else = CSV)")
	fs.Float64Var(&o.attribHz, "attrib-hz", 0, "attribution collector sampling rate in samples per simulated second (0 = the collector default, 10)")
	fs.StringVar(&o.logLevel, "log-level", "", "emit structured JSON logs on stderr at this level (debug, info, warn, error; default off so -quiet runs stay silent)")
	return o
}

// Start begins the run: cmd names the command for log prefixes and the
// run's trace; the flight recorder is created when -record was given, and
// the debug HTTP server is started when -http was given.
func (o *Obs) Start(cmd string) error {
	o.cmd = cmd
	_, o.trace = obs.New(obs.Config{}).StartRequest(context.Background(), obs.Request{Route: cmd})
	if o.logLevel != "" {
		lvl, enabled, err := obs.ParseLevel(o.logLevel)
		if err != nil {
			return fmt.Errorf("%s: %w", cmd, err)
		}
		if enabled {
			o.logger = obs.NewLogger(os.Stderr, lvl).With("cmd", cmd)
		}
	}
	if o.faultsPath != "" {
		f, err := os.Open(o.faultsPath)
		if err != nil {
			return fmt.Errorf("%s: load fault plan: %w", cmd, err)
		}
		plan, err := faults.Load(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: load fault plan %s: %w", cmd, o.faultsPath, err)
		}
		o.faultPlan = plan
		o.Infof("loaded fault plan %q (%d events) from %s", plan.Name, len(plan.Events), o.faultsPath)
	}
	if o.recordPath != "" {
		o.recorder = flight.New(flight.Config{Hz: o.recordHz})
	}
	if o.attribPath != "" {
		o.collector = attrib.New(attrib.Config{Hz: o.attribHz})
		if o.recorder != nil {
			// Drift-flag events land on the same timeline as the runs that
			// produced the evidence.
			o.collector.SetRecorder(o.recorder)
		}
	}
	if o.httpAddr != "" {
		mux := telemetry.DebugMux(telemetry.Default())
		mux.HandleFunc("/spans", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			o.writeSpans(w, true)
		})
		srv, err := telemetry.StartServer(o.httpAddr, mux)
		if err != nil {
			return err
		}
		o.httpSrv = srv
		o.Infof("serving debug endpoint on http://%s/metrics", srv.Addr())
	}
	return nil
}

// Close flushes the run's telemetry: the -metrics file, the -telemetry
// phase summary, and a graceful HTTP server shutdown (in-flight scrapes
// complete, the port is released). Safe to call exactly once, typically
// deferred right after Start.
func (o *Obs) Close() error {
	if o.httpSrv != nil {
		_ = o.httpSrv.Close()
	}
	o.trace.Root().End()
	if o.spans && !o.quiet {
		fmt.Fprintf(os.Stderr, "%s: phase timing:\n", o.cmd)
		o.writeSpans(os.Stderr, o.verbose)
	}
	if o.collector != nil {
		if err := o.writeAttrib(); err != nil {
			return err
		}
	}
	if o.recorder != nil {
		if err := o.writeRecord(); err != nil {
			return err
		}
	}
	if o.metricsPath == "" {
		return nil
	}
	f, err := os.Create(o.metricsPath)
	if err != nil {
		return fmt.Errorf("%s: write metrics: %w", o.cmd, err)
	}
	defer f.Close()
	if err := telemetry.Write(f, telemetry.Default(), telemetry.FormatForPath(o.metricsPath)); err != nil {
		return fmt.Errorf("%s: write metrics: %w", o.cmd, err)
	}
	o.Infof("wrote metrics to %s", o.metricsPath)
	return nil
}

// writeSpans renders the phase-duration histogram as an aligned table, one
// row per phase in first-observation order, then with tree the run's span
// tree.
func (o *Obs) writeSpans(w io.Writer, tree bool) {
	var phases []telemetry.SeriesSnapshot
	for _, f := range telemetry.Default().Gather() {
		if f.Name == telemetry.PhaseDurationMetric {
			phases = f.Series
		}
	}
	width := len("phase")
	for _, s := range phases {
		width = max(width, len(s.Labels["phase"]))
	}
	secs := func(v float64) time.Duration {
		return time.Duration(v * float64(time.Second)).Round(time.Microsecond)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s  %7s  %12s  %12s  %12s\n", width, "phase", "count", "total", "mean", "max")
	for _, s := range phases {
		if h := s.Hist; h.Count > 0 {
			fmt.Fprintf(&b, "%-*s  %7d  %12v  %12v  %12v\n", width, s.Labels["phase"], h.Count,
				secs(h.Sum), secs(h.Sum/float64(h.Count)), secs(h.Max))
		}
	}
	if tree {
		b.WriteByte('\n')
		_ = o.trace.WriteTree(&b)
	}
	_, _ = io.WriteString(w, b.String())
}

// Trace returns the root span of the command run's trace. Commands hand it
// to experiments.Options and core.Framework next to the recorder so their
// spans join the tree -v and /spans print; before Start it is untraced.
func (o *Obs) Trace() obs.Span {
	if o.trace == nil {
		return obs.Span{}
	}
	return *o.trace.Root()
}

// Context returns a background context carrying Trace as the parent of the
// spans opened under it, for the calls that take a context.
func (o *Obs) Context() context.Context {
	return obs.ContextWith(context.Background(), o.Trace())
}

// Recorder returns the -record flight recorder, or nil when recording is
// off. Commands hand it to the experiment engines' serially executed runs.
func (o *Obs) Recorder() *flight.Recorder { return o.recorder }

// Attrib returns the -attrib collector, or nil when attribution is off.
// Commands hand it to their measured runs like the recorder.
func (o *Obs) Attrib() *attrib.Collector { return o.collector }

// writeAttrib snapshots the collector (running the drift detector, so its
// gauges and flight events land before the -metrics dump and the -record
// timeline are written) and exports the report in the format the -attrib
// extension selects.
func (o *Obs) writeAttrib() error {
	rep := o.collector.Snapshot()
	f, err := os.Create(o.attribPath)
	if err != nil {
		return fmt.Errorf("%s: write attribution report: %w", o.cmd, err)
	}
	defer f.Close()
	if strings.ToLower(filepath.Ext(o.attribPath)) == ".json" {
		err = rep.WriteJSON(f)
	} else {
		err = rep.WriteCSV(f)
	}
	if err != nil {
		return fmt.Errorf("%s: write attribution report: %w", o.cmd, err)
	}
	o.Infof("wrote attribution report to %s (%d jobs, %d modules, %d flagged)",
		o.attribPath, len(rep.Jobs), len(rep.Modules), len(rep.Flagged))
	return nil
}

// FaultPlan returns the -faults plan, or nil when no plan was loaded.
func (o *Obs) FaultPlan() *faults.Plan { return o.faultPlan }

// Injector builds the fault injector for the -faults plan; nil (the
// no-faults sentinel) when no plan was loaded or the plan is empty.
func (o *Obs) Injector() *faults.Injector {
	if o.faultPlan == nil {
		return nil
	}
	return faults.MustInjector(o.faultPlan)
}

// writeRecord snapshots the recorder, writes the timeline in the format
// the -record extension selects, runs the analyzer, publishes its gauges
// (before the -metrics dump, so they appear there) and writes its text
// report next to the timeline.
func (o *Obs) writeRecord() error {
	tl := o.recorder.Snapshot()
	if tl.Empty() {
		o.Infof("flight recorder captured no records (no recorded runs executed)")
	}
	write := func(path string, fn func(f *os.File) error) error {
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("%s: write flight record: %w", o.cmd, err)
		}
		if err := fn(f); err != nil {
			f.Close()
			return fmt.Errorf("%s: write flight record: %w", o.cmd, err)
		}
		return f.Close()
	}
	var err error
	switch strings.ToLower(filepath.Ext(o.recordPath)) {
	case ".csv":
		err = write(o.recordPath, func(f *os.File) error { return flight.WriteCSV(f, tl) })
		if err == nil {
			companion := strings.TrimSuffix(o.recordPath, filepath.Ext(o.recordPath)) + ".phases.csv"
			err = write(companion, func(f *os.File) error { return flight.WritePhasesCSV(f, tl) })
		}
	case ".html", ".htm":
		err = write(o.recordPath, func(f *os.File) error { return flight.WriteHTML(f, tl) })
	default: // .trace, .json, anything else: Chrome trace-event JSON
		err = write(o.recordPath, func(f *os.File) error { return flight.WriteTrace(f, tl) })
	}
	if err != nil {
		return err
	}
	analysis := flight.Analyze(tl, 0)
	analysis.Publish()
	if err := write(o.recordPath+".report.txt", func(f *os.File) error {
		return analysis.WriteReport(f, 10)
	}); err != nil {
		return err
	}
	o.Infof("wrote flight record to %s (+ %s.report.txt)", o.recordPath, o.recordPath)
	return nil
}

// Logger returns the -log-level structured JSON logger, or nil when
// structured logging is off (the default — plain Infof lines remain the
// human-facing channel, and -quiet runs keep their empty stderr). varpowerd
// hands this to the request-observability layer so per-request log lines
// carry the same handler and level the command's own logs use.
func (o *Obs) Logger() *slog.Logger { return o.logger }

// Verbose reports whether -v is in force (and -quiet is not).
func (o *Obs) Verbose() bool { return o.verbose && !o.quiet }

// Infof prints an informational line to stderr unless -quiet.
func (o *Obs) Infof(format string, args ...any) {
	if o.quiet {
		return
	}
	fmt.Fprintf(os.Stderr, o.cmd+": "+format+"\n", args...)
}

// progressInterval rate-limits live progress lines.
const progressInterval = 250 * time.Millisecond

// Progress returns a live progress callback for the experiment engines
// (nil when not verbose, so the engines skip the plumbing entirely). Lines
// are rate-limited; the final completion of each stage always prints.
func (o *Obs) Progress() func(stage string, done, total int) {
	if !o.Verbose() {
		return nil
	}
	return func(stage string, done, total int) {
		o.progMu.Lock()
		defer o.progMu.Unlock()
		now := time.Now()
		if done != total && stage == o.progStage && now.Sub(o.progLast) < progressInterval {
			return
		}
		o.progLast = now
		o.progStage = stage
		fmt.Fprintf(os.Stderr, "%s: %s %d/%d\n", o.cmd, stage, done, total)
	}
}

// ProgressFunc adapts Progress to the single-stage signature of
// parallel.WithProgress for call sites outside internal/experiments.
func (o *Obs) ProgressFunc(stage string) func(done, total int) {
	p := o.Progress()
	if p == nil {
		return nil
	}
	return func(done, total int) { p(stage, done, total) }
}
