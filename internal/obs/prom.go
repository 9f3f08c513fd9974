package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"reflect"
	"regexp"
	"sort"
	"strings"
)

// WriteProm renders a JSON-tagged snapshot struct as Prometheus text
// exposition (version 0.0.4). One snapshot type feeds both /v1/metrics
// (JSON) and /metrics (Prometheus), so the two surfaces cannot drift:
//
//   - numeric and bool fields become `prefix_path_to_field value`
//   - nested structs extend the metric name with their tag path;
//     untagged embedded structs add nothing, as encoding/json promotes
//     their fields into the parent object
//   - string fields inside slice elements become labels on that
//     element's numeric fields (e.g. Ops []OpStats → op{backend="..."})
//   - map[string]T entries get a {key="..."} label
//   - HistogramJSON and DriftJSON render as native Prometheus
//     histograms: cumulative `_bucket{le="..."}` plus `_sum`/`_count`
//
// Export path: reflection and allocation are fine here; only the
// Observe side of the package is allocation-free.
func WriteProm(w io.Writer, prefix string, v any) error {
	p := promWriter{w: w}
	p.emit(prefix, nil, reflect.ValueOf(v))
	return p.err
}

type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

// line writes one sample: name{labels} value.
func (p *promWriter) line(name string, labels []string, value float64) {
	if math.IsNaN(value) {
		return
	}
	if len(labels) == 0 {
		p.printf("%s %s\n", name, formatFloat(value))
		return
	}
	p.printf("%s{%s} %s\n", name, strings.Join(labels, ","), formatFloat(value))
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// sanitizeName maps a JSON tag path to a legal Prometheus metric name.
func sanitizeName(s string) string {
	var b strings.Builder
	for i, r := range s {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

func label(k, v string) string { return fmt.Sprintf("%s=%q", sanitizeName(k), v) }

var (
	histJSONType  = reflect.TypeOf(HistogramJSON{})
	driftJSONType = reflect.TypeOf(DriftJSON{})
)

func jsonTag(f reflect.StructField) (name string, skip bool) {
	tag := f.Tag.Get("json")
	if tag == "-" || !f.IsExported() {
		return "", true
	}
	name = strings.Split(tag, ",")[0]
	if name == "" {
		name = strings.ToLower(f.Name)
	}
	return name, false
}

// promoted reports whether f is an untagged embedded struct, whose
// fields encoding/json promotes into the enclosing object.
func promoted(f reflect.StructField) bool {
	t := f.Type
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
	return f.Anonymous && name == "" && t.Kind() == reflect.Struct
}

func (p *promWriter) emit(name string, labels []string, rv reflect.Value) {
	if p.err != nil {
		return
	}
	switch rv.Kind() {
	case reflect.Pointer, reflect.Interface:
		if rv.IsNil() {
			return
		}
		p.emit(name, labels, rv.Elem())
	case reflect.Bool:
		v := 0.0
		if rv.Bool() {
			v = 1
		}
		p.line(name, labels, v)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		p.line(name, labels, float64(rv.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		p.line(name, labels, float64(rv.Uint()))
	case reflect.Float32, reflect.Float64:
		p.line(name, labels, rv.Float())
	case reflect.String:
		// A bare string becomes an info-style gauge: the value rides as
		// a label so enum states (e.g. breaker "open") stay queryable.
		if s := rv.String(); s != "" {
			p.line(name, append(append([]string(nil), labels...), label("value", s)), 1)
		}
	case reflect.Struct:
		switch rv.Type() {
		case histJSONType:
			p.histogram(name, labels, rv.Interface().(HistogramJSON))
		case driftJSONType:
			p.drift(name, labels, rv.Interface().(DriftJSON))
		default:
			p.structFields(name, labels, rv)
		}
	case reflect.Slice, reflect.Array:
		if rv.Kind() == reflect.Slice && rv.IsNil() {
			return
		}
		p.slice(name, labels, rv)
	case reflect.Map:
		p.mapEntries(name, labels, rv)
	}
}

func (p *promWriter) structFields(name string, labels []string, rv reflect.Value) {
	t := rv.Type()
	// String fields of this struct become labels for its sibling
	// numeric fields when the struct is a slice element (handled in
	// slice); at top level they render as info gauges instead.
	for i := 0; i < t.NumField(); i++ {
		if promoted(t.Field(i)) {
			p.emit(name, labels, rv.Field(i))
			continue
		}
		tag, skip := jsonTag(t.Field(i))
		if skip {
			continue
		}
		child := name
		if tag != "" {
			if child != "" {
				child += "_"
			}
			child += sanitizeName(tag)
		}
		p.emit(child, labels, rv.Field(i))
	}
}

// slice renders a slice: struct elements turn their string fields into
// labels; scalar elements get an index label.
func (p *promWriter) slice(name string, labels []string, rv reflect.Value) {
	for i := 0; i < rv.Len(); i++ {
		el := rv.Index(i)
		for el.Kind() == reflect.Pointer || el.Kind() == reflect.Interface {
			if el.IsNil() {
				break
			}
			el = el.Elem()
		}
		if el.Kind() == reflect.Struct && el.Type() == driftJSONType {
			// Drift series carry their own backend/term labels; an index
			// label would split the series across scrapes.
			p.drift(name, labels, el.Interface().(DriftJSON))
			continue
		}
		if el.Kind() == reflect.Struct && el.Type() != histJSONType {
			elLabels := append([]string(nil), labels...)
			t := el.Type()
			for j := 0; j < t.NumField(); j++ {
				tag, skip := jsonTag(t.Field(j))
				if skip || el.Field(j).Kind() != reflect.String {
					continue
				}
				if s := el.Field(j).String(); s != "" {
					elLabels = append(elLabels, label(tag, s))
				}
			}
			if len(elLabels) == len(labels) {
				elLabels = append(elLabels, label("index", fmt.Sprintf("%d", i)))
			}
			// Emit only the non-string fields; strings were consumed as
			// labels. Embedded structs promote their fields, as in
			// structFields and in the JSON.
			for j := 0; j < t.NumField(); j++ {
				if promoted(t.Field(j)) {
					p.emit(name, elLabels, el.Field(j))
					continue
				}
				tag, skip := jsonTag(t.Field(j))
				if skip || el.Field(j).Kind() == reflect.String {
					continue
				}
				child := name
				if tag != "" {
					if child != "" {
						child += "_"
					}
					child += sanitizeName(tag)
				}
				p.emit(child, elLabels, el.Field(j))
			}
			continue
		}
		p.emit(name, append(append([]string(nil), labels...), label("index", fmt.Sprintf("%d", i))), el)
	}
}

func (p *promWriter) mapEntries(name string, labels []string, rv reflect.Value) {
	if rv.IsNil() || rv.Type().Key().Kind() != reflect.String {
		return
	}
	keys := make([]string, 0, rv.Len())
	for _, k := range rv.MapKeys() {
		keys = append(keys, k.String())
	}
	sort.Strings(keys)
	for _, k := range keys {
		p.emit(name, append(append([]string(nil), labels...), label("key", k)),
			rv.MapIndex(reflect.ValueOf(k)))
	}
}

// histogram renders HistogramJSON as a native Prometheus histogram:
// cumulative buckets in seconds, then sum and count.
func (p *promWriter) histogram(name string, labels []string, h HistogramJSON) {
	var cum uint64
	for _, b := range h.Buckets {
		cum += b.Count
		le := append(append([]string(nil), labels...),
			fmt.Sprintf("le=%q", formatFloat(b.LeSeconds)))
		p.line(name+"_bucket", le, float64(cum))
	}
	inf := append(append([]string(nil), labels...), `le="+Inf"`)
	p.line(name+"_bucket", inf, float64(h.Count))
	p.line(name+"_sum", labels, h.SumSeconds)
	p.line(name+"_count", labels, float64(h.Count))
}

// promLine matches one sample of the text exposition format (0.0.4):
// metric name, optional label set, one float value.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? ` +
		`(-?[0-9]*\.?[0-9]+([eE][+-]?[0-9]+)?|[+-]?Inf|NaN)$`)

// ValidatePromText is a minimal Prometheus text-format validator: every
// non-comment line must be a well-formed sample and the exposition must
// contain at least one. Tests in cmd/renderd use it to
// keep /metrics scrapeable.
func ValidatePromText(text string) error {
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	n := 0
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		n++
		if !promLine.MatchString(line) {
			return fmt.Errorf("invalid prometheus exposition line %d: %q", n, line)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("prometheus exposition contained no samples")
	}
	return nil
}

// drift renders DriftJSON as a Prometheus histogram over the signed
// relative error, labeled by backend and term.
func (p *promWriter) drift(name string, labels []string, d DriftJSON) {
	base := append(append([]string(nil), labels...),
		label("backend", d.Backend), label("term", d.Term))
	var cum uint64
	for _, b := range d.Buckets {
		cum += b.Count
		le := append(append([]string(nil), base...),
			fmt.Sprintf("le=%q", formatFloat(b.Lt)))
		p.line(name+"_bucket", le, float64(cum))
	}
	inf := append(append([]string(nil), base...), `le="+Inf"`)
	p.line(name+"_bucket", inf, float64(d.Count))
	p.line(name+"_sum", base, d.MeanError*float64(d.Count))
	p.line(name+"_count", base, float64(d.Count))
	p.line(name+"_mean_abs_error", base, d.MeanAbs)
}
