package report

import (
	"bytes"
	"strings"
	"testing"
)

func TestRenderAlignment(t *testing.T) {
	tab := NewTable("Title", "A", "LongHeader", "C")
	tab.AddRow("x", "1", "2")
	tab.AddRow("longer-cell", "3", "4")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("line count %d:\n%s", len(lines), out)
	}
	if lines[0] != "Title" {
		t.Errorf("title line %q", lines[0])
	}
	// Column starts align between header and rows.
	hIdx := strings.Index(lines[1], "LongHeader")
	rIdx := strings.Index(lines[3], "1")
	if hIdx != rIdx {
		t.Errorf("column misaligned: header at %d, row at %d\n%s", hIdx, rIdx, out)
	}
	if !strings.HasPrefix(lines[2], "---") {
		t.Errorf("separator line %q", lines[2])
	}
}

func TestShortRowsPadded(t *testing.T) {
	tab := NewTable("", "A", "B")
	tab.AddRow("only-one")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if tab.NumRows() != 1 {
		t.Fatal("row count")
	}
}

func TestRenderCSV(t *testing.T) {
	tab := NewTable("ignored", "name", "value")
	tab.AddRow("plain", "1.5")
	tab.AddRow(`with,comma`, `with"quote`)
	var buf bytes.Buffer
	if err := tab.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if lines[0] != "name,value" {
		t.Errorf("header %q", lines[0])
	}
	if lines[2] != `"with,comma","with""quote"` {
		t.Errorf("escaped row %q", lines[2])
	}
}

func TestCells(t *testing.T) {
	if Cellf(3.14159, 3) != "3.142" {
		t.Errorf("Cellf = %q", Cellf(3.14159, 3))
	}
}

func TestSection(t *testing.T) {
	var buf bytes.Buffer
	Section(&buf, "Hello")
	if !strings.Contains(buf.String(), "=== Hello ===") {
		t.Errorf("section output %q", buf.String())
	}
}
