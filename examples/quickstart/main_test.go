package main

// Example pins the example's stdout: who sees which layer's updates.
func Example() {
	main()
	// Output:
	// plane           : [/1/2] soldier -> "captured the flag" (object flag)
	// satellite       : [/1/2] soldier -> "captured the flag" (object flag)
	// soldier         : [/1/] plane -> "doors open" (object bomb-bay)
	// satellite       : [/1/] plane -> "doors open" (object bomb-bay)
	// soldier         : [/] satellite -> "scanning" (object orbit)
	// plane           : [/] satellite -> "scanning" (object orbit)
	// plane           : [/1/3] other -> "planted" (object mine)
	// soldier         : (sees nothing from zone 1/3, as intended)
}
