package main

import (
	"reflect"
	"strings"
	"testing"
	"unicode"

	"repro/internal/core"
)

// TestTreeCountersGroupAsTree walks core.StatsSnapshot by reflection: the
// stat key of every tree counter (its field name in snake_case, as the
// server exports it) must print in the tree group, not in "other".
func TestTreeCountersGroupAsTree(t *testing.T) {
	snap := reflect.TypeOf(core.StatsSnapshot{})
	for i := 0; i < snap.NumField(); i++ {
		var b strings.Builder
		for j, r := range snap.Field(i).Name {
			if unicode.IsUpper(r) && j > 0 {
				b.WriteByte('_')
			}
			b.WriteRune(unicode.ToLower(r))
		}
		if g := statsGroup(b.String()); g != "tree" {
			t.Errorf("core.StatsSnapshot.%s's key %q groups as %q, want tree", snap.Field(i).Name, b.String(), g)
		}
	}
}
