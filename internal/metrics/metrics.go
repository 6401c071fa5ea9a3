// Package metrics is the one place that knows the Prometheus text
// exposition format (0.0.4): producers build Family values at their
// sources and Write renders them; consumers Parse a scraped body and
// look samples up on the Scrape. It hides the text format and nothing
// else: no registry, no global state.
package metrics

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Value is a sample value: an integer, rendered as %d, or a float,
// rendered as %g.
type Value struct {
	n       uint64
	f       float64
	isFloat bool
}

// Int and Float make the two kinds of Value. Int takes the integer
// types counters and gauges are kept in; none of them is ever negative.
func Int[T ~int | ~int64 | ~uint64](n T) Value { return Value{n: uint64(n)} }
func Float(f float64) Value                    { return Value{f: f, isFloat: true} }

// Label is one {name, value} pair.
type Label [2]string

// Sample is one line of a family: its labels in rendering order and
// its value. Suffix is appended to the family name; it is empty except
// for a summary's "_sum" and "_count".
type Sample struct {
	Suffix string
	Labels []Label
	Value  Value
}

// Family is one metric: a HELP/TYPE header (Type is "counter",
// "gauge" or "summary") and its samples in order.
type Family struct {
	Name, Help, Type string
	Samples          []Sample
}

// Scalar is the family of one unlabeled sample.
func Scalar(name, help, typ string, v Value) Family {
	return Family{Name: name, Help: help, Type: typ, Samples: []Sample{{Value: v}}}
}

// Counters is a counter family with one {counter="name"} sample per
// map entry, in sorted name order — the shape every Counters() map in
// the tree is exported in; Scrape.Labeled(name, "counter") reads it
// back.
func Counters(name, help string, counters map[string]uint64) Family {
	f := Family{Name: name, Help: help, Type: "counter"}
	for n, v := range counters {
		f.Samples = append(f.Samples, Sample{Labels: []Label{{"counter", n}}, Value: Int(v)})
	}
	sort.Slice(f.Samples, func(i, j int) bool { return f.Samples[i].Labels[0][1] < f.Samples[j].Labels[0][1] })
	return f
}

// Write renders fams to w in order, as one write.
func Write(w io.Writer, fams []Family) error {
	var b []byte
	for _, f := range fams {
		b = append(b, "# HELP "+f.Name+" "+f.Help+"\n# TYPE "+f.Name+" "+f.Type+"\n"...)
		for _, s := range f.Samples {
			b = append(b, f.Name+s.Suffix...)
			sep := "{"
			for _, l := range s.Labels {
				b = append(b, sep+l[0]+"="...)
				b = strconv.AppendQuote(b, l[1]) // covers the format's escapes: \\, \", \n
				sep = ","
			}
			if len(s.Labels) > 0 {
				b = append(b, '}')
			}
			b = append(b, ' ')
			if s.Value.isFloat {
				b = strconv.AppendFloat(b, s.Value.f, 'g', -1, 64)
			} else {
				b = strconv.AppendUint(b, s.Value.n, 10)
			}
			b = append(b, '\n')
		}
	}
	_, err := w.Write(b)
	return err
}

// Scrape is a parsed exposition: sample name with its label block, as
// written, → value.
type Scrape map[string]Value

// Parse reads an exposition. Comments, blank lines and lines that are
// not "name[{labels}] value [timestamp]" with a numeric value are
// skipped, so it survives families it does not know and bodies it did
// not write; of duplicate samples the last wins. An integer token is
// an integer value, anything else strconv.ParseFloat accepts (NaN
// too) a float. The error is the reader's — a line over 1 MiB is
// bufio.ErrTooLong — and what was read before it comes back with it.
func Parse(r io.Reader) (Scrape, error) {
	s := Scrape{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '{' {
			continue
		}
		// The name runs through the label block's '}' (a quoted label
		// value may hold spaces; nothing after the block holds a
		// brace), or to the first space when there is no block — or to
		// the '{' of an unclosed one, which then is no numeric value.
		end := strings.LastIndexByte(line, '}') + 1
		if end == 0 {
			end = max(strings.IndexAny(line, " \t{"), 0)
		}
		fields := strings.Fields(line[end:])
		if end == 0 || len(fields) == 0 {
			continue
		}
		if n, err := strconv.ParseUint(fields[0], 10, 64); err == nil {
			s[line[:end]] = Int(n)
		} else if f, err := strconv.ParseFloat(fields[0], 64); err == nil {
			s[line[:end]] = Float(f)
		}
	}
	return s, sc.Err()
}

// Uint returns the unlabeled integer sample called name; 0 when it
// is absent or not an integer.
func (s Scrape) Uint(name string) uint64 { return s[name].n }

// Labeled returns every integer sample of family that carries exactly
// the one label, keyed by the label's value: family{label="k"} n is
// k → n. Consumers of counters skip what is not a count.
func (s Scrape) Labeled(family, label string) map[string]uint64 {
	out := make(map[string]uint64)
	for name, v := range s {
		rest, ok := strings.CutPrefix(name, family+"{"+label+"=")
		if !ok || v.isFloat {
			continue
		}
		if k, err := strconv.Unquote(strings.TrimSuffix(rest, "}")); err == nil {
			out[k] = v.n
		}
	}
	return out
}
