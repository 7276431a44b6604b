package main

// Example runs the program and pins its printed output, so a change in
// what the example demonstrates fails the test instead of passing silently.
func Example() {
	main()
	// Output:
	// music show (audio-first pairing)     video  235 Kbps | audio  368 Kbps | stalls 0 | combos [V1+A2 V2+A3]
	// action movie (video-first pairing)   video  337 Kbps | audio  128 Kbps | stalls 0 | combos [V1+A1 V3+A1]
	// default H_sub pairing                video  337 Kbps | audio  189 Kbps | stalls 0 | combos [V1+A1 V3+A2]
	//
	// Same player, same link: the manifest's combination list decides where
	// the bits go — that is why the server must curate it per content (§4.1).
}
