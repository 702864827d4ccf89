package countq

import (
	"strings"
	"testing"
)

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec("funnel")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "funnel" || s.Options.Len() != 0 {
		t.Errorf("bare name parsed as %+v", s)
	}

	s, err = ParseSpec("funnel?width=64&spin=256")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "funnel" {
		t.Errorf("name = %q", s.Name)
	}
	if v, ok := s.Options.Lookup("width"); !ok || v != "64" {
		t.Errorf("width = %q, %v", v, ok)
	}
	if v, ok := s.Options.Lookup("spin"); !ok || v != "256" {
		t.Errorf("spin = %q, %v", v, ok)
	}

	// A trailing "?" with no parameters is the bare spec.
	s, err = ParseSpec("swap?")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "swap" || s.Options.Len() != 0 {
		t.Errorf("empty query parsed as %+v", s)
	}

	for _, bad := range []string{"", "?width=4", "a?x", "a?=4", "a?x=1&x=2", "a?x=1&"} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}

func TestSpecStringRoundTrip(t *testing.T) {
	for _, in := range []string{"funnel", "funnel?spin=256&width=64", "funnel?depth=3&spin=8&width=4"} {
		s, err := ParseSpec(in)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.String(); got != in {
			t.Errorf("round trip %q -> %q", in, got)
		}
		again, err := ParseSpec(s.String())
		if err != nil {
			t.Fatalf("canonical form %q does not re-parse: %v", s.String(), err)
		}
		if again.String() != s.String() {
			t.Errorf("re-parse changed canonical form: %q vs %q", again.String(), s.String())
		}
	}
	// Keys render sorted regardless of input order.
	s, err := ParseSpec("funnel?width=64&spin=256")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.String(); got != "funnel?spin=256&width=64" {
		t.Errorf("canonical form not sorted: %q", got)
	}
}

func TestSpecWith(t *testing.T) {
	base, err := ParseSpec("funnel?width=4")
	if err != nil {
		t.Fatal(err)
	}
	a := base.With("spin", "16")
	b := base.With("spin", "256")
	if got := a.String(); got != "funnel?spin=16&width=4" {
		t.Errorf("a = %q", got)
	}
	if got := b.String(); got != "funnel?spin=256&width=4" {
		t.Errorf("b = %q", got)
	}
	// The base spec is untouched — With copies.
	if got := base.String(); got != "funnel?width=4" {
		t.Errorf("base mutated by With: %q", got)
	}
	// With replaces an existing key.
	if got := a.With("spin", "32").String(); got != "funnel?spin=32&width=4" {
		t.Errorf("replace = %q", got)
	}
}

func TestOptionsTypedGetters(t *testing.T) {
	var o Options
	o.Set("i", "42")
	o.Set("i64", "99")
	o.Set("f", "0.25")
	o.Set("b", "true")
	if got := o.Int("i", 0); got != 42 {
		t.Errorf("Int = %d", got)
	}
	if got := o.Int64("i64", 0); got != 99 {
		t.Errorf("Int64 = %d", got)
	}
	if got := o.Float64("f", 0); got != 0.25 {
		t.Errorf("Float64 = %v", got)
	}
	if got := o.Bool("b", false); got != true {
		t.Errorf("Bool = %v", got)
	}
	// Absent keys yield the default with no error.
	if got := o.Int("missing", 7); got != 7 {
		t.Errorf("default Int = %d", got)
	}
	if err := o.Err(); err != nil {
		t.Fatalf("well-typed reads errored: %v", err)
	}
	// The zero Options is usable and all-defaults.
	var zero Options
	if got := zero.Int("x", 3); got != 3 || zero.Err() != nil {
		t.Errorf("zero Options: %d, %v", got, zero.Err())
	}
}

func TestOptionsConversionErrors(t *testing.T) {
	var o Options
	o.Set("n", "banana")
	o.Set("m", "7")
	if got := o.Int("n", 5); got != 5 {
		t.Errorf("failed conversion returned %d, want default 5", got)
	}
	err := o.Err()
	if err == nil {
		t.Fatal("conversion failure not recorded")
	}
	if !strings.Contains(err.Error(), "banana") {
		t.Errorf("error does not name the bad value: %v", err)
	}
	// The first error wins; later good reads don't clear it.
	if got := o.Int("m", 0); got != 7 {
		t.Errorf("later read = %d", got)
	}
	if o.Err() == nil {
		t.Error("error cleared by a later read")
	}
	// Bool and Float64 record failures too.
	var o2 Options
	o2.Set("b", "maybe")
	o2.Bool("b", false)
	if o2.Err() == nil {
		t.Error("bad bool not recorded")
	}
	var o3 Options
	o3.Set("f", "fast")
	o3.Float64("f", 0)
	if o3.Err() == nil {
		t.Error("bad float not recorded")
	}
}
