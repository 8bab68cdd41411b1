package main

// Example pins the example's stdout: query-response and cyclic snapshot
// fetches through the broker, the movement types, and Resume's catch-up.
func Example() {
	main()
	// Output:
	// scout (query-response)     to a different zone [different region]     areas= 2 objects=7
	// scout (cyclic multicast)   to a different zone [different region]     areas= 2 objects=7
	// plane take-off             zone -> region                             areas= 4 objects=0
	// plane landing              to lower layer                             areas= 0 objects=0
	// satellite launch           region -> world                            areas=24 objects=7
	// scout back online          caught up on 10 logged updates (latest: barricade2 by neighbor)
}
