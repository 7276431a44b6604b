package main

// Example runs the program and pins its printed output, so a change in
// what the example demonstrates fails the test instead of passing silently.
func Example() {
	main()
	// Output:
	// streamed "drama-show" with bestpractice
	//   startup:   0.65 s
	//   stalls:    0 (0.0 s rebuffering)
	//   video:     606 Kbps average, 6 switches
	//   audio:     182 Kbps average, 5 switches
	//   combos:    [V1+A1 V4+A2 V2+A1 V3+A2]
	//   imbalance: 5.0 s max (chunk-synced prefetching keeps it within one chunk)
	//   QoE score: 0.07
}
