let () =
  Alcotest.run "econ"
    [
      Suite_demand.suite;
      Suite_throughput.suite;
      Suite_utilization.suite;
      Suite_cp_isp.suite;
      Suite_aggregate.suite;
      Suite_ad.suite;
    ]
