package main

// Example pins the example's stdout: a seeded 3 000-update trace replayed
// through the fabric, counted per layer and per player.
func Example() {
	main()
	// Output:
	// replayed 3000 updates from 60 players
	// updates by layer: 684 world / 818 region-airspace / 1498 zone
	// total deliveries: 40549 (avg fan-out 13.5 receivers/update)
	// per-player deliveries: min=280 median=481 max=2985
	// players never learned each other's addresses — only map positions.
}
