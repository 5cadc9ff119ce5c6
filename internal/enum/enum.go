// Package enum is the one text codec of the library's enumerated options.
// Each option type keeps its spellings in a table indexed by value, and
// its String, MarshalText and UnmarshalText methods read that table
// through these functions, so a spelling is written down exactly once:
// specs, command-line flags and input decks all parse it here.
package enum

import (
	"fmt"
	"reflect"
	"strings"
)

// Name returns the spelling of v, or "Type(v)" for a value outside the
// table.
func Name[T ~int](names []string, v T) string {
	if v >= 0 && int(v) < len(names) {
		return names[v]
	}
	return fmt.Sprintf("%s(%d)", reflect.TypeFor[T]().Name(), int(v))
}

// Parse returns the value spelled name.
func Parse[T ~int](names []string, name string) (T, error) {
	for i, n := range names {
		if n == name {
			return T(i), nil
		}
	}
	return 0, fmt.Errorf("unknown %s %q (%s)", reflect.TypeFor[T](), name, strings.Join(names, "|"))
}

// Unmarshal is UnmarshalText over names: the empty text decodes to the
// zero value, the default of every option, and dst is left unchanged on
// an error.
func Unmarshal[T ~int](names []string, dst *T, text []byte) error {
	if len(text) == 0 {
		*dst = 0
		return nil
	}
	v, err := Parse[T](names, string(text))
	if err != nil {
		return err
	}
	*dst = v
	return nil
}
