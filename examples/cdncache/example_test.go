package main

// Example runs the program and pins its printed output, so a change in
// what the example demonstrates fails the test instead of passing silently.
func Example() {
	main()
	// Output:
	// origin storage for 6 video x 3 audio tracks of a 5-minute asset:
	//   demuxed (9 track objects):         225.2 MB
	//   muxed   (18 combination objects):  751.5 MB  (3.34x)
	//
	// 8 viewers, 2 video rungs x 3 audio variants:
	//   demuxed: hit ratio 0.69, byte hit ratio 0.71, origin traffic   64.5 MB
	//   muxed:   hit ratio 0.25, byte hit ratio 0.23, origin traffic  168.2 MB
	//
	// Demuxed packaging lets viewers who differ only in audio share every
	// cached video chunk — the cache-hit advantage the paper's §1 describes.
	//
	// byte hit ratio vs cache size (60 Zipf viewers, 3 audio variants):
	//   cache      demuxed  muxed
	//      32 MB    0.147    0.037
	//     128 MB    0.627    0.272
	//     512 MB    0.908    0.629
	//    2048 MB    0.908    0.700
}
