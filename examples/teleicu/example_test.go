package main

// Example pins the program's whole output, which the virtual clock makes
// deterministic: store-and-forward against streaming tele-ICU alerts.
func Example() {
	main()
	// Output:
	// store-and-forward (flush every 15m0s):
	//    [45m0.071018344s] hub alert: home-2 SpO2 89.9% (measured 4m45.071s ago)
	//
	// store-and-forward (flush every 1m0s):
	//    [41m0.041947249s] hub alert: home-2 SpO2 89.9% (measured 45.042s ago)
	//
	// streaming:
	//    [40m15.075631611s] hub alert: home-2 SpO2 89.9% (measured 76ms ago)
	//
	// Streaming turns home monitoring into real-time care — the paper's
	// prerequisite for physiologically closed-loop telemedicine.
}
