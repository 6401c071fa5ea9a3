package metrics

import (
	"bufio"
	"bytes"
	"errors"
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

// readFamilies is the test's own reader of a golden: a line-by-line
// decoder written against the format, sharing no code with Parse, that
// keeps everything Write needs — header text, sample order, label
// order, and whether a value was printed as an integer.
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

// nameOf is the key Parse holds a written sample under.
func nameOf(family string, s Sample) string {
	var b bytes.Buffer
	Write(&b, []Family{{Name: family, Samples: []Sample{s}}})
	line := strings.Split(b.String(), "\n")[2]
	return line[:strings.LastIndexByte(line, ' ')]
}

// TestWriteReproducesParentBytes: Write over the goldens' content is
// the goldens, byte for byte, and Parse reads every sample of it back.
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
		scrape, err := Parse(&out)
		if err != nil {
			t.Fatal(err)
		}
		samples := 0
		for _, f := range fams {
			for _, s := range f.Samples {
				samples++
				name := nameOf(f.Name, s)
				if got, ok := scrape[name]; !ok || got != s.Value {
					t.Errorf("%s: sample %s parsed as %+v (present %v), wrote %+v", path, name, got, ok, s.Value)
				}
			}
		}
		if samples != len(scrape) || samples == 0 {
			t.Errorf("%s: wrote %d samples, parsed %d", path, samples, len(scrape))
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
	scrape, err := Parse(&out)
	if err != nil {
		t.Fatal(err)
	}
	if got := scrape.Labeled("m", "a"); len(got) != 0 {
		t.Errorf("Labeled matched a two-label sample: %v", got)
	}
	if got := scrape[nameOf("m", f.Samples[0])]; got != Int(uint64(math.MaxUint64)) {
		t.Errorf("two-label sample with a hostile label value parsed as %+v", got)
	}
}

// TestParse is the one parser's table. "server scrape" is a worker's
// /metrics as a scraper reads it; "worker body" is the case
// internal/cluster's own parser was tested on before this package
// replaced it. The coordinator is Parse's one production consumer.
func TestParse(t *testing.T) {
	cases := []struct {
		name, text string
		want       Scrape
		uints      map[string]uint64            // Uint(name)
		labeled    map[string]map[string]uint64 // Labeled(family, "counter")
	}{
		{name: "server scrape",
			text: `# HELP veriopt_requests_shed_total ...
# TYPE veriopt_requests_shed_total counter
veriopt_requests_shed_total 7
veriopt_panics_total 2
veriopt_vcache_total{counter="queries"} 100
veriopt_vcache_total{counter="hits"} 60
veriopt_vcache_hit_rate 0.6
some_unknown_family{x="y"} 1
`,
			want: Scrape{"veriopt_requests_shed_total": Int(7), "veriopt_panics_total": Int(2),
				`veriopt_vcache_total{counter="queries"}`: Int(100), `veriopt_vcache_total{counter="hits"}`: Int(60),
				"veriopt_vcache_hit_rate": Float(0.6), `some_unknown_family{x="y"}`: Int(1)},
			uints: map[string]uint64{"veriopt_requests_shed_total": 7, "veriopt_panics_total": 2,
				"veriopt_vcache_hit_rate": 0, "absent": 0},
			labeled: map[string]map[string]uint64{"veriopt_vcache_total": {"queries": 100, "hits": 60}, "veriopt_oracle_total": {}},
		},
		{name: "worker body",
			text: "# HELP veriopt_oracle_total x\n# TYPE veriopt_oracle_total counter\n" +
				"veriopt_oracle_total{counter=\"queries\"} 5\n" +
				"veriopt_vcache_total{counter=\"hits\"} 3\n" +
				"veriopt_queue_depth 2\n",
			want: Scrape{`veriopt_oracle_total{counter="queries"}`: Int(5),
				`veriopt_vcache_total{counter="hits"}`: Int(3), "veriopt_queue_depth": Int(2)},
			uints: map[string]uint64{"veriopt_queue_depth": 2},
			labeled: map[string]map[string]uint64{"veriopt_oracle_total": {"queries": 5},
				"veriopt_vcache_total": {"hits": 3}, "veriopt_vstore_total": {}},
		},
		{name: "not samples",
			text: "\n   \n# veriopt_fake 1\n #indented 2\nno_value\nno_value_labeled{a=\"b\"}\n" +
				"word value\nunclosed{a=\"b 3\n{a=\"b\"} 4\n 5\nd NaNs\nj 0x10\n",
			want: Scrape{},
		},
		{name: "values spacing timestamps duplicates",
			text: "a 1\r\n  b\t2  \nc{l=\"x } y\"}   3 1700000000\ne -1\nf 1e3\ng +Inf\n" +
				"h 18446744073709551615\ni 18446744073709551616\nk{counter=\"n\"} 1.5\nk{counter=\"m\"} 4\na 9\n",
			want: Scrape{"a": Int(9), "b": Int(2), `c{l="x } y"}`: Int(3), "e": Float(-1), "f": Float(1000),
				"g": Float(math.Inf(1)), "h": Int(uint64(math.MaxUint64)), "i": Float(18446744073709551616),
				`k{counter="n"}`: Float(1.5), `k{counter="m"}`: Int(4)},
			uints:   map[string]uint64{"a": 9, "e": 0, "f": 0},
			labeled: map[string]map[string]uint64{"k": {"m": 4}, "c": {}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Parse(strings.NewReader(tc.text))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("parsed %+v\nwant   %+v", got, tc.want)
			}
			for name, want := range tc.uints {
				if n := got.Uint(name); n != want {
					t.Errorf("Uint(%q) = %d, want %d", name, n, want)
				}
			}
			for fam, want := range tc.labeled {
				if l := got.Labeled(fam, "counter"); !reflect.DeepEqual(l, want) {
					t.Errorf("Labeled(%q, counter) = %v, want %v", fam, l, want)
				}
			}
		})
	}
}

// TestParseNaN: NaN is a float sample (no two NaNs are equal, so it is
// not in the table), and no count.
func TestParseNaN(t *testing.T) {
	got, err := Parse(strings.NewReader("d{counter=\"x\"} NaN\n"))
	v := got[`d{counter="x"}`]
	if err != nil || !v.isFloat || !math.IsNaN(v.f) || len(got.Labeled("d", "counter")) != 0 {
		t.Fatalf("parsed %+v, err %v", got, err)
	}
}

// TestParseOverlongLine: a line past the 1 MiB bound ends the read
// with the scanner's error, and what came before it is kept.
func TestParseOverlongLine(t *testing.T) {
	got, err := Parse(strings.NewReader("a 1\n" + strings.Repeat("x", 1<<20+1) + " 2\nb 3\n"))
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("err = %v, want bufio.ErrTooLong", err)
	}
	if !reflect.DeepEqual(got, Scrape{"a": Int(1)}) {
		t.Fatalf("kept %+v, want the sample before the long line", got)
	}
}

// FuzzParse: a replica's body is input from outside the process. Parse
// must not panic on any bytes, must take no sample from a comment
// line, and must hold every sample under a non-empty name.
func FuzzParse(f *testing.F) {
	for _, path := range goldens {
		blob, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte("a{b=\"c\\\"}\"} NaN\na 1\na 2\n#x 1\n{ 1\n} 2\nm{ 3"))
	f.Fuzz(func(t *testing.T, body []byte) {
		var commented []byte
		for _, line := range bytes.SplitAfter(body, []byte("\n")) {
			commented = append(append(commented, "# "...), line...)
		}
		if s, _ := Parse(bytes.NewReader(commented)); len(s) != 0 {
			t.Fatalf("samples %v from comment lines only", s)
		}
		s, _ := Parse(bytes.NewReader(body))
		for name := range s {
			if name == "" || name[0] == '#' {
				t.Fatalf("sample under name %q", name)
			}
		}
		s.Uint("a")
		s.Labeled("a", "b")
	})
}
