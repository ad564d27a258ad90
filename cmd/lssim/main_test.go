package main

import "testing"

func TestParseDist(t *testing.T) {
	for _, tc := range []struct {
		dist string
		ok   bool
	}{
		{"uniform", true},
		{"zipf", true},
		{"zipf:0.99", true},
		{"zipf:-1", false},
		{"zipf:0", false},
		{"zipf:x", false},
		{"hotcold", true},
		{"hotcold:0.9", true},
		{"hotcold:90", false},
		{"hotcold:1", false},
		{"hotcold:NaN", false},
		{"shifting", true},
		{"bogus", false},
	} {
		gen, err := parseDist(tc.dist, 1000, 1)
		if tc.ok && (err != nil || gen == nil) {
			t.Errorf("parseDist(%q) = %v, %v; want a generator", tc.dist, gen, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("parseDist(%q) accepted", tc.dist)
		}
	}
}
