package metrics

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// The goldens are the whole /metrics sections of the two producers
// over fixed inputs, written at PR 14's commit by PR 14's hand-written
// renderers (internal/server TestMetricsGolden and internal/cluster
// TestMetricsTextGolden write them under -update and hold the
// producers to them). Between them they cover every family in the
// tree: unlabeled counters and gauges, sorted {counter="…"} families,
// two-label samples, a summary's _sum/_count pairs under one header,
// seven- and eight-digit integers (%d, where %g would print an
// exponent) and floats in both %g notations.
var goldens = []string{"testdata/server.golden", "testdata/coordinator.golden"}

// readFamilies is the test's own reader of the format: a line-by-line
// decoder that keeps everything Write needs — header text, sample
// order, label order, and whether a value was printed as an integer.
func readFamilies(t *testing.T, text string) []Family {
	t.Helper()
	var fams []Family
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, help, _ := strings.Cut(rest, " ")
			fams = append(fams, Family{Name: name, Help: help})
			continue
		}
		if len(fams) == 0 {
			t.Fatalf("sample before any header: %q", line)
		}
		f := &fams[len(fams)-1]
		if rest, ok := strings.CutPrefix(line, "# TYPE "+f.Name+" "); ok {
			f.Type = rest
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		name, val := line[:i], line[i+1:]
		var s Sample
		if n, err := strconv.ParseUint(val, 10, 64); err == nil {
			s.Value = Int(n)
		} else if x, err := strconv.ParseFloat(val, 64); err == nil {
			s.Value = Float(x)
		} else {
			t.Fatalf("bad value in %q", line)
		}
		if j := strings.IndexByte(name, '{'); j >= 0 {
			for _, pair := range strings.Split(strings.TrimSuffix(name[j+1:], "}"), ",") {
				k, quoted, _ := strings.Cut(pair, "=")
				v, err := strconv.Unquote(quoted)
				if err != nil {
					t.Fatalf("bad label in %q: %v", line, err)
				}
				s.Labels = append(s.Labels, Label{k, v})
			}
			name = name[:j]
		}
		s.Suffix = strings.TrimPrefix(name, f.Name)
		if s.Suffix == name || (s.Suffix != "" && f.Type != "summary") {
			t.Fatalf("sample %q under family %q", line, f.Name)
		}
		f.Samples = append(f.Samples, s)
	}
	return fams
}

// TestWriteReproducesParentBytes: Write over the goldens' content is
// the goldens, byte for byte, and readFamilies reads back every family
// and sample it wrote.
func TestWriteReproducesParentBytes(t *testing.T) {
	for _, path := range goldens {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fams := readFamilies(t, string(blob))
		var out bytes.Buffer
		if err := Write(&out, fams); err != nil {
			t.Fatal(err)
		}
		if out.String() != string(blob) {
			t.Errorf("%s: Write differs\n--- got ---\n%s", path, out.String())
		}
		if back := readFamilies(t, out.String()); len(back) == 0 || !reflect.DeepEqual(back, fams) {
			t.Errorf("%s: wrote %d families, read back %d: %+v", path, len(fams), len(back), back)
		}
	}
}

// TestWriteValuesAndLabels: the value and label renderings the goldens
// cannot show — they must agree with the fmt verbs the hand-written
// renderers used.
func TestWriteValuesAndLabels(t *testing.T) {
	label := "sp ace \"quote\" back\\slash\nnewline } brace é"
	values := []float64{0, 1, 0.5, 1e-7, 123456789, 1e21, math.Inf(1), math.NaN(), -2.5}
	f := Family{Name: "m", Help: "h", Type: "gauge",
		Samples: []Sample{{Labels: []Label{{"a", label}, {"b", ""}}, Value: Int(uint64(math.MaxUint64))}}}
	want := fmt.Sprintf("# HELP m h\n# TYPE m gauge\nm{a=%q,b=\"\"} %d\n", label, uint64(math.MaxUint64))
	for _, v := range values {
		f.Samples = append(f.Samples, Sample{Value: Float(v)})
		want += fmt.Sprintf("m %g\n", v)
	}
	var out bytes.Buffer
	if err := Write(&out, []Family{f}); err != nil {
		t.Fatal(err)
	}
	if out.String() != want {
		t.Fatalf("got\n%s\nwant\n%s", out.String(), want)
	}
	if got := readFamilies(t, out.String())[0].Samples[0]; !reflect.DeepEqual(got, f.Samples[0]) {
		t.Errorf("two-label sample with a hostile label value read back as %+v", got)
	}
}
