package main

// Example pins the example's stdout: the fixed and auto-balanced runs'
// mean latency and worst queue, every split, and the per-update series.
func Example() {
	main()
	// Output:
	// single overloaded RP vs automatic balancing (Fig. 5b/5c):
	//   fixed 1 RP : mean latency  12632.6 ms, worst queue 10912 packets
	//   auto       : mean latency     65.1 ms, worst queue    24 packets, 4 RPs at the end
	//     split at packet    397 (t=1.3s): moved [/ /4 /3] -> new RP (now 2 RPs)
	//     split at packet  35077 (t=87.6s): moved [/] -> new RP (now 3 RPs)
	//     split at packet  35117 (t=87.7s): moved [/3] -> new RP (now 4 RPs)
	//
	// latency along the run (packet index -> avg update latency):
	//        0     46.6ms ****
	//     3333     76.8ms *******
	//     6666     53.4ms *****
	//     9999     70.5ms *******
	//    13332     60.2ms ******
	//    16665     67.1ms ******
	//    19998     53.8ms *****
	//    23331     58.0ms *****
	//    26664     48.0ms ****
	//    29997     77.1ms *******
	//    33330     65.4ms ******
	//    36663     69.1ms ******
	//    39996     44.2ms ****
	//
	// improvement: 194x lower mean latency with auto-balancing
}
