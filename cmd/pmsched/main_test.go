package main

import (
	"strings"
	"testing"
)

func TestParseRange(t *testing.T) {
	lo, hi, err := parseRange("5:10")
	if err != nil || lo != 5 || hi != 10 {
		t.Fatalf("parseRange(5:10) = %d, %d, %v", lo, hi, err)
	}
	lo, hi, err = parseRange("7")
	if err != nil || lo != 7 || hi != 7 {
		t.Fatalf("parseRange(7) = %d, %d, %v", lo, hi, err)
	}
	for _, bad := range []string{"x", "5:x", "0:3", "5:2", ""} {
		if _, _, err := parseRange(bad); err == nil {
			t.Errorf("parseRange(%q) accepted", bad)
		}
	}
}

func TestLookupBuiltin(t *testing.T) {
	for _, name := range []string{"dealer", "gcd", "vender", "cordic", "absdiff", "GCD"} {
		c, err := lookupBuiltin(name)
		if err != nil || !strings.EqualFold(c.Name, name) {
			t.Errorf("lookupBuiltin(%q) = %v, %v", name, c, err)
		}
	}
	_, err := lookupBuiltin("nope")
	if err == nil || !strings.Contains(err.Error(), "valid: dealer, gcd, vender, cordic, absdiff") {
		t.Errorf("lookupBuiltin(nope) error = %v, want the valid names listed", err)
	}
}
