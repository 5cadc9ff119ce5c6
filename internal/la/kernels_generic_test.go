//go:build !amd64

package la

import "testing"

// eachKernelPath runs fn on the one implementation there is.
func eachKernelPath(_ testing.TB, fn func(path string)) { fn("generic") }
