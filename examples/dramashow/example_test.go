package main

// Example runs the program and pins its printed output, so a change in
// what the example demonstrates fails the test instead of passing silently.
func Example() {
	main()
	// Output:
	// Scenario: fixed-900k (Fig 2)
	// Model           AvgVideo  AvgAudio  Stalls  Rebuffer  Switches(V/A)  Off-manifest  MaxImbalance  QoE
	// exoplayer-dash  450K      196K      0       0.0s      4/0            6             5.0s          0.62
	// exoplayer-hls   246K      384K      0       0.0s      0/0            60            5.0s          1.17
	// shaka           246K      128K      0       0.0s      0/0            0             5.0s          0.36
	// dashjs          588K      380K      0       0.0s      44/1           57            25.0s         -6.45
	// bestpractice    337K      189K      0       0.0s      1/1            0             5.0s          0.89
	// bola-joint      348K      191K      0       0.0s      2/1            0             5.0s          0.95
	// mpc-joint       674K      195K      0       0.0s      2/1            0             5.0s          1.48
	// dynamic-joint   358K      195K      0       0.0s      1/1            0             5.0s          1.02
	//
	// Scenario: varying-avg-600k (Fig 3)
	// Model           AvgVideo  AvgAudio  Stalls  Rebuffer  Switches(V/A)  Off-manifest  MaxImbalance  QoE
	// exoplayer-dash  669K      179K      8       77.2s     15/11          0             5.0s          -70.65
	// exoplayer-hls   306K      384K      6       45.0s     11/0           60            5.0s          -39.56
	// shaka           726K      195K      9       148.8s    1/1            0             5.0s          -126.24
	// dashjs          614K      299K      11      144.6s    36/14          46            25.0s         -132.65
	// bestpractice    485K      172K      8       68.0s     13/12          0             5.0s          -62.75
	// bola-joint      524K      178K      7       44.4s     18/11          0             5.0s          -41.83
	// mpc-joint       653K      188K      8       135.0s    13/13          0             5.0s          -119.01
	// dynamic-joint   651K      187K      9       135.1s    13/10          0             5.0s          -118.53
	//
	// Scenario: fixed-1M (Fig 4a)
	// Model           AvgVideo  AvgAudio  Stalls  Rebuffer  Switches(V/A)  Off-manifest  MaxImbalance  QoE
	// exoplayer-dash  473K      196K      0       0.0s      0/0            0             5.0s          1.27
	// exoplayer-hls   246K      384K      0       0.0s      0/0            60            5.0s          1.25
	// shaka           246K      128K      0       0.0s      0/0            0             5.0s          0.40
	// dashjs          732K      380K      0       0.0s      48/1           53            25.0s         -8.85
	// bestpractice    333K      188K      0       0.0s      1/1            0             5.0s          0.88
	// bola-joint      349K      193K      0       0.0s      1/1            0             5.0s          0.99
	// mpc-joint       699K      195K      0       0.0s      2/1            0             5.0s          1.55
	// dynamic-joint   358K      195K      0       0.0s      1/1            0             5.0s          1.05
	//
	// Scenario: bimodal-avg-600k (Fig 4b)
	// Model           AvgVideo  AvgAudio  Stalls  Rebuffer  Switches(V/A)  Off-manifest  MaxImbalance  QoE
	// exoplayer-dash  425K      189K      0       0.0s      10/6           3             5.0s          -1.67
	// exoplayer-hls   208K      384K      7       4.2s      17/0           60            5.0s          -5.28
	// shaka           360K      195K      0       0.0s      1/1            0             5.0s          1.07
	// dashjs          365K      285K      1       5.5s      48/42          47            10.0s         -21.07
	// bestpractice    329K      184K      0       0.0s      7/7            0             5.0s          -0.10
	// bola-joint      349K      193K      0       0.0s      1/1            0             5.0s          1.01
	// mpc-joint       408K      173K      6       3.2s      35/22          0             5.0s          -8.83
	// dynamic-joint   350K      190K      0       0.0s      5/5            0             5.0s          0.36
	//
	// Scenario: fixed-700k (Fig 5)
	// Model           AvgVideo  AvgAudio  Stalls  Rebuffer  Switches(V/A)  Off-manifest  MaxImbalance  QoE
	// exoplayer-dash  250K      196K      0       0.0s      1/0            59            5.0s          0.24
	// exoplayer-hls   246K      384K      0       0.0s      0/0            60            5.0s          0.97
	// shaka           246K      128K      0       0.0s      0/0            0             5.0s          0.23
	// dashjs          389K      336K      0       0.0s      43/20          53            10.0s         -8.17
	// bestpractice    235K      128K      0       0.0s      1/0            0             5.0s          0.26
	// bola-joint      348K      191K      0       0.0s      2/1            0             5.0s          0.89
	// mpc-joint       358K      195K      0       0.0s      1/1            0             5.0s          0.95
	// dynamic-joint   352K      191K      0       0.0s      2/1            0             5.0s          0.91
	//
	// Reading the tables:
	//   - exoplayer-hls pins audio (A switches = 0) and strays off-manifest;
	//   - shaka under/over-estimates on links its 16 KB filter cannot sample;
	//   - dashjs churns selections and lets the A/V buffers diverge;
	//   - bestpractice stays on the allowed pairings with balanced buffers.
}
