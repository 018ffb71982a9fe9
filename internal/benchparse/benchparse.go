// Package benchparse reads `go test -bench` output and the repository's
// committed BENCH.json artifact into a shared record type. It is the
// parsing layer under cmd/benchjson (which regenerates the artifact) and
// cmd/benchgate (which compares a fresh run against it).
package benchparse

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"strconv"
	"strings"
)

// Bench is one benchmark result. AllocsOp is -1 when the run did not
// include -benchmem.
type Bench struct {
	Name     string  `json:"name"`
	NsOp     float64 `json:"ns_op"`
	AllocsOp int64   `json:"allocs_op"`
}

// benchLine matches one result line, e.g.
//
//	BenchmarkFigure7-8   1   123456789 ns/op   2048 B/op   32 allocs/op   1.23 speedup-avg
//
// The name is captured whole, GOMAXPROCS suffix included; Normalize strips
// it knowing the width, because a blind `-\d+$` strip would also eat
// meaningful name tails like "workers-1" or "exp-2".
var benchLine = regexp.MustCompile(`^(Benchmark\S*)\s+\d+\s+(.*)$`)

// Parse extracts the benchmark records from go test -bench text output.
// Names are returned exactly as printed; pass the result through Normalize
// to strip the machine's GOMAXPROCS suffix.
func Parse(r io.Reader) ([]Bench, error) {
	var out []Bench
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		b := Bench{Name: m[1], AllocsOp: -1}
		// The tail is "value unit" pairs: "123 ns/op 45 B/op 6 allocs/op ...".
		fields := strings.Fields(m[2])
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchparse: %s: bad value %q for %q", b.Name, fields[i], fields[i+1])
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsOp = v
			case "allocs/op":
				b.AllocsOp = int64(v)
			}
		}
		out = append(out, b)
	}
	return out, sc.Err()
}

// Normalize strips the trailing "-<gomaxprocs>" suffix the testing package
// appends to benchmark names when GOMAXPROCS != 1, so artifacts diff
// cleanly across machines. Only the exact width is stripped — a benchmark
// whose own name ends in "-1" or "-2" survives on machines of any other
// width (and on every machine when gomaxprocs is 1, where go appends no
// suffix at all).
func Normalize(benches []Bench, gomaxprocs int) []Bench {
	if gomaxprocs <= 1 {
		return benches
	}
	suffix := "-" + strconv.Itoa(gomaxprocs)
	for i := range benches {
		benches[i].Name = strings.TrimSuffix(benches[i].Name, suffix)
	}
	return benches
}

// ReadAny decodes benchmark records from data that is either the BENCH.json
// artifact (a JSON array) or raw `go test -bench` text, detected by the
// first non-space byte. Raw text is normalised for the width gomaxprocs it
// ran at; JSON names were normalised when the artifact was written, so they
// are kept as is (stripping again would turn "exp-2" into "exp" at width 2).
func ReadAny(data []byte, gomaxprocs int) ([]Bench, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	if len(trimmed) > 0 && trimmed[0] == '[' {
		var out []Bench
		if err := json.Unmarshal(trimmed, &out); err != nil {
			return nil, fmt.Errorf("benchparse: decode JSON: %w", err)
		}
		return out, nil
	}
	benches, err := Parse(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	return Normalize(benches, gomaxprocs), nil
}

// ByName indexes records by name. Duplicate names (a benchmark run twice,
// or names that collided during normalisation) are an error — a gate
// comparing them could silently check the wrong record.
func ByName(benches []Bench) (map[string]Bench, error) {
	out := make(map[string]Bench, len(benches))
	for _, b := range benches {
		if _, dup := out[b.Name]; dup {
			return nil, fmt.Errorf("benchparse: duplicate benchmark name %q", b.Name)
		}
		out[b.Name] = b
	}
	return out, nil
}
