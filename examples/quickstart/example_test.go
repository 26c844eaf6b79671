package main

// Example pins the program's whole output, which the virtual clock makes
// deterministic: admission, liveness and five minutes of SpO2 data over
// the ICE bus.
func Example() {
	main()
	// Output:
	// t=2.764515ms device ox1: admitted=true alive=true (Repro Medical OXI-50)
	// t=32.00231524s ox1 reports SpO2 97.9% (valid=true, quality 0.83)
	// t=1m0.001376014s ox1 reports SpO2 97.8% (valid=true, quality 0.81)
	// t=1m32.002858278s ox1 reports SpO2 97.8% (valid=true, quality 0.82)
	// t=2m0.001372968s ox1 reports SpO2 98.0% (valid=true, quality 0.82)
	// t=2m32.002268612s ox1 reports SpO2 97.8% (valid=true, quality 0.82)
	// t=3m0.002638896s ox1 reports SpO2 97.9% (valid=true, quality 0.82)
	// t=3m32.002749447s ox1 reports SpO2 98.0% (valid=true, quality 0.82)
	// t=4m0.002437089s ox1 reports SpO2 97.9% (valid=true, quality 0.83)
	// t=4m32.001962361s ox1 reports SpO2 98.0% (valid=true, quality 0.83)
	//
	// after 5 virtual minutes: true SpO2 98.0%, HR 88 bpm, pain 7.0/10
}
