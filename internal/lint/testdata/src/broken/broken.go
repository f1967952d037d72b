// Package broken does not type-check: loading it must fail, so a tree
// with a type error can never lint clean.
package broken

var n int = "not an int"
