package main

import "math/rand"

// Package main may use the global source: a binary's top level is where the
// seed is decided.
func main() {
	_ = rand.Intn(10)
}
