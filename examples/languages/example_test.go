package main

// Example runs the program and pins its printed output, so a change in
// what the example demonstrates fails the test instead of passing silently.
func Example() {
	main()
	// Output:
	// asset "multi-language-show": 6 shared video tracks, audio per language:
	//   en: [EN1 EN2]
	//   es: [ES1 ES2]
	//
	// viewer switches en -> es at t=120 s on a 2 Mbps link:
	//   demuxed: discards   1.4 MB (buffered audio only), 0 stalls, QoE 1.39
	//   muxed:   discards   3.8 MB (audio AND buffered video), 1 stalls, QoE 0.53
	//
	// demuxed session audio chunks by language: map[en:30 es:36]
	// (the video buffer built before the switch kept playing — only
	//  demuxed packaging makes a language change this cheap, §1)
}
