package countq

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Spec names a registered structure together with its construction
// parameters, parsed from the DSN-style string form "name" or
// "name?param=value&param=value" (database/sql style). The zero Spec is
// invalid; build one with ParseSpec or a Spec literal plus With.
type Spec struct {
	// Name is the registry key (e.g. "sharded").
	Name string
	// Options carries the parameters; the zero value means all defaults.
	Options Options
}

// ParseSpec parses "name" or "name?k=v&k2=v2" into a Spec. Keys must be
// non-empty and distinct; values are kept verbatim (no URL escaping — the
// registry's parameters are simple numeric and boolean tokens).
func ParseSpec(s string) (Spec, error) {
	name, query, hasQuery := strings.Cut(s, "?")
	if name == "" {
		return Spec{}, fmt.Errorf("countq: spec %q has no structure name", s)
	}
	sp := Spec{Name: name}
	if !hasQuery || query == "" {
		return sp, nil
	}
	for _, kv := range strings.Split(query, "&") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k == "" {
			return Spec{}, fmt.Errorf("countq: spec %q: malformed parameter %q (want key=value)", s, kv)
		}
		if _, dup := sp.Options.Lookup(k); dup {
			return Spec{}, fmt.Errorf("countq: spec %q: parameter %q given twice", s, k)
		}
		sp.Options.Set(k, v)
	}
	return sp, nil
}

// String renders the spec in its canonical parseable form: the name alone
// when every parameter is defaulted, otherwise "name?k=v&…" with keys
// sorted.
func (s Spec) String() string {
	keys := s.Options.Keys()
	if len(keys) == 0 {
		return s.Name
	}
	var b strings.Builder
	b.WriteString(s.Name)
	for i, k := range keys {
		if i == 0 {
			b.WriteByte('?')
		} else {
			b.WriteByte('&')
		}
		v, _ := s.Options.Lookup(k)
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(v)
	}
	return b.String()
}

// With returns a copy of the spec with one parameter set (replacing any
// existing value). The receiver is not modified, so a base spec can fan
// out into a sweep: base.With("batch", "64"), base.With("batch", "256"), …
func (s Spec) With(key, value string) Spec {
	out := Spec{Name: s.Name}
	for _, k := range s.Options.Keys() {
		v, _ := s.Options.Lookup(k)
		out.Options.Set(k, v)
	}
	out.Options.Set(key, value)
	return out
}

// Options is a bag of string parameters with typed getters. Getters return
// the given default when the key is absent and record the first conversion
// failure, so a constructor reads every parameter and then checks Err once:
//
//	width := o.Int("width", 8)
//	batch := o.Int64("batch", 64)
//	if err := o.Err(); err != nil {
//		return nil, err
//	}
//
// The zero Options is ready to use and means "all defaults".
type Options struct {
	vals map[string]string
	err  error
}

// Set records a parameter, replacing any previous value for the key.
func (o *Options) Set(key, value string) {
	if o.vals == nil {
		o.vals = make(map[string]string)
	}
	o.vals[key] = value
}

// Lookup reports the raw value for key and whether it was set.
func (o *Options) Lookup(key string) (string, bool) {
	v, ok := o.vals[key]
	return v, ok
}

// Keys returns the set parameter names, sorted.
func (o *Options) Keys() []string {
	keys := make([]string, 0, len(o.vals))
	for k := range o.vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Len reports how many parameters are set.
func (o *Options) Len() int { return len(o.vals) }

// Err returns the first typed-getter conversion failure, or nil.
func (o *Options) Err() error { return o.err }

func (o *Options) fail(key, value, want string) {
	if o.err == nil {
		o.err = fmt.Errorf("countq: param %s=%q is not %s", key, value, want)
	}
}

// Int reads key as an int, or def when absent.
func (o *Options) Int(key string, def int) int {
	v, ok := o.vals[key]
	if !ok {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		o.fail(key, v, "an integer")
		return def
	}
	return n
}

// Int64 reads key as an int64, or def when absent.
func (o *Options) Int64(key string, def int64) int64 {
	v, ok := o.vals[key]
	if !ok {
		return def
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		o.fail(key, v, "an integer")
		return def
	}
	return n
}

// Float64 reads key as a float64, or def when absent.
func (o *Options) Float64(key string, def float64) float64 {
	v, ok := o.vals[key]
	if !ok {
		return def
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		o.fail(key, v, "a number")
		return def
	}
	return f
}

// Duration reads key as a time.Duration ("1us", "2ms"), or def when
// absent. Bare "0" is accepted (no unit needed for zero).
func (o *Options) Duration(key string, def time.Duration) time.Duration {
	v, ok := o.vals[key]
	if !ok {
		return def
	}
	if v == "0" {
		return 0
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		o.fail(key, v, "a duration (e.g. 1us, 2ms)")
		return def
	}
	return d
}

// String reads key verbatim, or def when absent.
func (o *Options) String(key, def string) string {
	v, ok := o.vals[key]
	if !ok {
		return def
	}
	return v
}

// Bool reads key as a bool ("true"/"false"/"1"/"0"), or def when absent.
func (o *Options) Bool(key string, def bool) bool {
	v, ok := o.vals[key]
	if !ok {
		return def
	}
	b, err := strconv.ParseBool(v)
	if err != nil {
		o.fail(key, v, "a boolean")
		return def
	}
	return b
}

// ParamInfo declares one construction parameter of a registered structure:
// its spec key, the value used when the spec omits it, and a one-line doc.
// The registry rejects spec parameters that no ParamInfo declares, and
// `countq list -v` prints the declarations, so the set is load-bearing,
// not documentation-only.
type ParamInfo struct {
	Name    string
	Default string
	Doc     string
}

// checkParams rejects option keys that the declared parameter set does not
// cover — the unknown-key half of the spec contract (typos fail loudly
// instead of silently running at defaults).
func checkParams(kind, name string, o Options, params []ParamInfo) error {
	for _, k := range o.Keys() {
		known := false
		for _, p := range params {
			if p.Name == k {
				known = true
				break
			}
		}
		if !known {
			declared := make([]string, len(params))
			for i, p := range params {
				declared[i] = p.Name
			}
			return fmt.Errorf("countq: %s %q has no param %q (declared: %v)", kind, name, k, declared)
		}
	}
	return nil
}
