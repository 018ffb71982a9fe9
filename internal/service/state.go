package service

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"
	"time"

	"varpower/internal/attrib"
	"varpower/internal/cluster"
	"varpower/internal/core"
	"varpower/internal/faults"
	"varpower/internal/snapshot"
	"varpower/internal/telemetry"
)

// SnapshotVersion is the service's snapshot payload format version. Bump it
// whenever systemState changes shape; old files then fail ErrVersion and the
// daemon rebuilds cold instead of half-parsing.
//
// Version 2 added the model margin to the model cache rows: a version-1
// file holds VaFs solve bodies computed without it.
const SnapshotVersion = 2

// restoresTotal counts boot-time restore outcomes per system: "warm" (state
// adopted from a snapshot), "cold" (no snapshot present), "corrupt" (a
// snapshot existed but failed verification), "stale" (a valid snapshot for a
// different configuration — seed, module count or fault plan changed).
func restoresTotal(outcome string) *telemetry.Counter {
	return telemetry.Default().Counter("varpower_snapshot_restores_total",
		"Boot-time snapshot restore attempts by outcome.",
		telemetry.Labels{"outcome": outcome})
}

// systemState is one owned system's durable state — the snapshot payload.
// Everything the daemon spent real time computing is here: the install-time
// (or recalibrated) PVT, the generation counter that keys the caches, the
// attribution collector's ledger and drift windows, and the rendered solve
// bodies plus calibrated models for the current generation. What is NOT here
// is anything derivable from configuration alone: the cluster itself is
// rebuilt from (spec, seed, fault plan) at restore, and the PVT is validated
// against it.
type systemState struct {
	Name       string        `json:"name"`
	Seed       uint64        `json:"seed"`
	Modules    int           `json:"modules"`
	Faults     string        `json:"faults,omitempty"` // fault-plan fingerprint
	Generation uint64        `json:"generation"`
	PVT        *core.PVT     `json:"pvt"`
	Attrib     *attrib.State `json:"attrib,omitempty"`
	Solves     []solveEntry  `json:"solves,omitempty"`
	PMTs       []pmtState    `json:"pmts,omitempty"`
}

// solveEntry is one rendered solve-cache row (Body is the exact response
// bytes, so a restored hit is byte-identical by construction).
type solveEntry struct {
	Key  string `json:"key"`
	Body []byte `json:"body"`
}

// pmtState is one model-cache row: the calibrated model's PMT and margin.
type pmtState struct {
	Key         string    `json:"key"`
	PMT         *core.PMT `json:"pmt"`
	Margin      float64   `json:"margin"`
	Quarantined []int     `json:"quarantined,omitempty"`
}

// RestoreOutcome records how one configured system came up at boot.
type RestoreOutcome struct {
	System  string `json:"system"`
	Outcome string `json:"outcome"` // warm | cold | corrupt | stale
	Note    string `json:"note,omitempty"`
	// Generation is the adopted PVT generation on a warm restore.
	Generation uint64 `json:"generation,omitempty"`
}

// snapshotPath is the per-system snapshot file: lower-cased system name so
// two shards sharing a state directory address the same file for the same
// system (that sharing is what lets a secondary adopt its dead primary's
// state). Characters a filesystem would object to — "BG/Q Vulcan" has both
// a slash and a space — map to dashes.
func snapshotPath(dir, system string) string {
	name := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		default:
			return '-'
		}
	}, strings.ToLower(system))
	return filepath.Join(dir, name+".snap")
}

// faultsFingerprint identifies the boot fault plan in a snapshot, so a
// snapshot taken under one plan is never restored under another (the PVT
// bakes in the plan's drifted caps).
func faultsFingerprint(p *faults.Plan) string {
	if p == nil {
		return ""
	}
	return fmt.Sprintf("name=%s,events=%d", p.Name, len(p.Events))
}

// SnapshotSystem durably persists one owned system's state. It is safe
// under load: the (fw, gen) pair is read atomically, the collector state is
// captured under the collector's own lock, and cache export skips in-flight
// computes.
func (s *Server) SnapshotSystem(name string) (snapshot.Meta, error) {
	if s.cfg.StateDir == "" {
		return snapshot.Meta{}, fmt.Errorf("service: no state dir configured")
	}
	b, ok := s.builtSystem(name)
	if !ok {
		return snapshot.Meta{}, fmt.Errorf("service: system %q not loaded", name)
	}
	fw, _, gen := b.snapshot()
	st := systemState{
		Name:       b.spec.Name,
		Seed:       s.cfg.Seed,
		Modules:    fw.Sys.NumModules(),
		Faults:     faultsFingerprint(s.cfg.Faults),
		Generation: gen,
		PVT:        fw.PVT,
		Attrib:     b.collector.State(),
	}
	// Only the current generation's cache rows are worth persisting: rows
	// from older generations are unreachable by key construction.
	prefix := fmt.Sprintf("g%d|%s|", gen, b.spec.Name)
	for _, e := range s.solves.export(func(k string) bool { return strings.HasPrefix(k, prefix) }) {
		st.Solves = append(st.Solves, solveEntry{Key: e.key, Body: e.val})
	}
	for _, e := range s.pmts.export(func(k string) bool { return strings.HasPrefix(k, prefix) }) {
		m := e.val.model
		st.PMTs = append(st.PMTs, pmtState{Key: e.key, PMT: m.PMT, Margin: m.Margin, Quarantined: e.val.quarantined})
	}
	return snapshot.WriteJSON(snapshotPath(s.cfg.StateDir, b.spec.Name), SnapshotVersion, st)
}

// Snapshot persists every built system's state, returning one Meta per
// written file. Errors are collected, not short-circuited: one unwritable
// system must not block the others' durability.
func (s *Server) Snapshot() ([]snapshot.Meta, error) {
	if s.cfg.StateDir == "" {
		return nil, fmt.Errorf("service: no state dir configured")
	}
	var metas []snapshot.Meta
	var errs []error
	for _, name := range s.builtNames() {
		m, err := s.SnapshotSystem(name)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, err))
			continue
		}
		metas = append(metas, m)
	}
	return metas, errors.Join(errs...)
}

// RestoreReport returns the boot-time restore outcome per configured
// system, in load/build order — cmd/varpowerd logs the restored-vs-rebuilt
// line from this. Lazy systems materialised later append their outcomes as
// they build.
func (s *Server) RestoreReport() []RestoreOutcome {
	s.baseMu.RLock()
	defer s.baseMu.RUnlock()
	return append([]RestoreOutcome{}, s.restores...)
}

// restoreSystem attempts to bring spec up warm from the state directory.
// The cluster itself is rebuilt from configuration (spec, seed, fault plan
// — identical inputs reproduce the identical machine), then the snapshot's
// PVT is adopted in place of a fresh calibration sweep, the generation
// counter continues where it left off (preserving every generation-keyed
// cache row), and the attribution history and cache contents are seeded
// back. Returns (nil, outcome) when the snapshot is absent, corrupt or
// stale; the caller falls back to a cold build.
func (s *Server) restoreSystem(spec cluster.Spec, n int) (*baseSystem, RestoreOutcome) {
	name := spec.Name
	var st systemState
	_, err := snapshot.ReadJSON(snapshotPath(s.cfg.StateDir, name), SnapshotVersion, &st)
	switch {
	case err == nil:
	case errors.Is(err, fs.ErrNotExist):
		return nil, RestoreOutcome{System: name, Outcome: "cold", Note: "no snapshot"}
	case errors.Is(err, snapshot.ErrCorrupt):
		return nil, RestoreOutcome{System: name, Outcome: "corrupt", Note: err.Error()}
	default:
		return nil, RestoreOutcome{System: name, Outcome: "corrupt", Note: err.Error()}
	}
	if note := func() string {
		switch {
		case st.Name != name:
			return fmt.Sprintf("snapshot is for %q", st.Name)
		case st.Seed != s.cfg.Seed:
			return fmt.Sprintf("seed %d, serving %d", st.Seed, s.cfg.Seed)
		case st.Modules != n:
			return fmt.Sprintf("%d modules, serving %d", st.Modules, n)
		case st.Faults != faultsFingerprint(s.cfg.Faults):
			return "fault plan changed"
		case st.PVT == nil || len(st.PVT.Entries) != n:
			return "PVT does not cover the loaded modules"
		}
		return ""
	}(); note != "" {
		return nil, RestoreOutcome{System: name, Outcome: "stale", Note: note}
	}
	sys, err := cluster.New(spec, n, s.cfg.Seed)
	if err != nil {
		return nil, RestoreOutcome{System: name, Outcome: "stale", Note: err.Error()}
	}
	if s.cfg.Faults != nil {
		inj, err := faults.NewInjector(s.cfg.Faults)
		if err != nil {
			return nil, RestoreOutcome{System: name, Outcome: "stale", Note: err.Error()}
		}
		sys.InstallFaults(inj)
	}
	fw, err := core.NewFrameworkWithPVT(sys, st.PVT)
	if err != nil {
		return nil, RestoreOutcome{System: name, Outcome: "stale", Note: err.Error()}
	}
	fw.Workers = s.cfg.Workers
	// The GPU device-class table is deterministic in (spec, seed) and is
	// not persisted; hybrid systems regenerate it on restore.
	if fw.GPVT, err = s.gpuTableFor(sys); err != nil {
		return nil, RestoreOutcome{System: name, Outcome: "stale", Note: err.Error()}
	}
	b := &baseSystem{
		spec:      spec,
		fw:        fw,
		pool:      core.NewReplicaPool(fw),
		gen:       st.Generation,
		restored:  true,
		collector: attrib.New(attrib.Config{}),
	}
	b.collector.Restore(st.Attrib)
	var solves []cachedEntry[[]byte]
	for _, e := range st.Solves {
		solves = append(solves, cachedEntry[[]byte]{key: e.Key, val: e.Body})
	}
	s.solves.seed(solves)
	// A restored row's model holds what Allocate reads: a CPU-only
	// system's module table and its margin.
	var pmts []cachedEntry[calibration]
	for _, e := range st.PMTs {
		m := &core.Model{PMT: e.PMT, Margin: e.Margin}
		pmts = append(pmts, cachedEntry[calibration]{key: e.Key, val: calibration{model: m, quarantined: e.Quarantined}})
	}
	s.pmts.seed(pmts)
	return b, RestoreOutcome{
		System: name, Outcome: "warm", Generation: st.Generation,
		Note: fmt.Sprintf("gen %d, %d solve + %d pmt cache rows", st.Generation, len(solves), len(pmts)),
	}
}

// snapshotLoop periodically persists every built system until stop closes.
func (s *Server) snapshotLoop(interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			_, _ = s.Snapshot()
		}
	}
}
