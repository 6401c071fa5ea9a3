// Package metrics is the one place that knows the Prometheus text
// exposition format (0.0.4): producers build Family values at their
// sources and Write renders them. It hides the text format and nothing
// else: no registry, no global state.
package metrics

import (
	"io"
	"sort"
	"strconv"
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
// the tree is exported in.
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
