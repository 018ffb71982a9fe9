package snapshot

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	payload := []byte(`{"hello":"world","n":42}`)

	wm, err := Write(path, 3, payload)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if wm.Version != 3 || wm.Bytes != int64(headerSize+len(payload)) {
		t.Fatalf("write meta = %+v", wm)
	}
	got, rm, err := Read(path, 3)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload round trip: got %q want %q", got, payload)
	}
	if rm.SHA256 != wm.SHA256 {
		t.Fatalf("checksum mismatch across round trip: %s vs %s", rm.SHA256, wm.SHA256)
	}
}

func TestWriteReplacesAtomically(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	if _, err := Write(path, 1, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if _, err := Write(path, 1, []byte("second")); err != nil {
		t.Fatal(err)
	}
	got, _, err := Read(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "second" {
		t.Fatalf("got %q, want the replacing write", got)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file %s left behind", e.Name())
		}
	}
}

func TestReadMissingFile(t *testing.T) {
	_, _, err := Read(filepath.Join(t.TempDir(), "nope.snap"), 1)
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("want fs.ErrNotExist, got %v", err)
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatalf("a missing file must not classify as corrupt: %v", err)
	}
}

// mutate writes a copy of the valid snapshot with fn applied and reads it
// back, returning the read error.
func mutate(t *testing.T, payload []byte, fn func([]byte) []byte) error {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	if _, err := Write(path, 7, payload); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = Read(path, 7)
	return err
}

func TestReadRejectsCorruption(t *testing.T) {
	payload := bytes.Repeat([]byte("varpower snapshot payload "), 20)
	cases := []struct {
		name string
		fn   func([]byte) []byte
		want error
	}{
		{"truncated-mid-payload", func(b []byte) []byte { return b[:len(b)-9] }, ErrTruncated},
		{"truncated-in-header", func(b []byte) []byte { return b[:headerSize/2] }, ErrTruncated},
		{"empty", func(b []byte) []byte { return nil }, ErrTruncated},
		{"bit-flip-payload", func(b []byte) []byte {
			b[headerSize+5] ^= 0x40
			return b
		}, ErrChecksum},
		{"bit-flip-checksum", func(b []byte) []byte {
			b[21] ^= 0x01
			return b
		}, ErrChecksum},
		{"version-bump", func(b []byte) []byte {
			b[11]++
			return b
		}, ErrVersion},
		{"bad-magic", func(b []byte) []byte {
			b[0] = 'X'
			return b
		}, ErrBadMagic},
		{"trailing-garbage", func(b []byte) []byte { return append(b, 0xFF) }, ErrTruncated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := mutate(t, payload, tc.fn)
			if !errors.Is(err, tc.want) {
				t.Fatalf("want %v, got %v", tc.want, err)
			}
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("every rejection must classify under ErrCorrupt, got %v", err)
			}
		})
	}
}

func TestJSONRoundTrip(t *testing.T) {
	type state struct {
		Name string `json:"name"`
		Gen  uint64 `json:"gen"`
		Vals []float64
	}
	path := filepath.Join(t.TempDir(), "s.snap")
	in := state{Name: "HA8K", Gen: 3, Vals: []float64{1.25, 0.5}}
	if _, err := WriteJSON(path, 1, in); err != nil {
		t.Fatal(err)
	}
	var out state
	if _, err := ReadJSON(path, 1, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.Gen != in.Gen || len(out.Vals) != 2 || out.Vals[0] != 1.25 {
		t.Fatalf("round trip: %+v", out)
	}
}

func TestJSONRejectsMalformedPayload(t *testing.T) {
	// A checksum-valid file whose payload is not the expected JSON shape
	// must classify as corrupt, not panic or half-populate.
	path := filepath.Join(t.TempDir(), "s.snap")
	if _, err := Write(path, 1, []byte(`{"gen": "not a number"`)); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Gen uint64 `json:"gen"`
	}
	_, err := ReadJSON(path, 1, &out)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for malformed payload JSON, got %v", err)
	}
}
