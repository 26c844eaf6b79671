package main

// Example pins the program's whole output, which the virtual clock makes
// deterministic: the threshold-only and the multivariate + context alarm
// engines.
func Example() {
	main()
	// Output:
	// threshold-only engine:
	//    [10m16.001736204s] crisis spo2-low: spo2=82.8 outside [90.0,101.0]
	//    [25m20.002192808s] warning map-low: map=53.7 outside [62.0,115.0]
	//    [45m0.002237659s] crisis spo2-low: spo2=89.2 outside [90.0,101.0]
	//    [50m0.002822316s] crisis spo2-low: spo2=85.0 outside [90.0,101.0]
	//    [55m4.001203932s] crisis spo2-low: spo2=87.6 outside [90.0,101.0]
	//    total alarms: 5 (suppressed: 0 artifact-like, 0 context)
	//
	// multivariate + context engine:
	//    [45m0.002237659s] crisis spo2-low: spo2=89.2 outside [90.0,101.0]
	//    [50m0.002822316s] crisis spo2-low: spo2=85.0 outside [90.0,101.0]
	//    [55m4.001203932s] crisis spo2-low: spo2=87.6 outside [90.0,101.0]
	//    total alarms: 3 (suppressed: 57 artifact-like, 50 context)
}
