let () =
  Alcotest.run "dpsyn"
    [
      ("tech", Test_tech.suite);
      ("expr", Test_expr.suite);
      ("netlist", Test_netlist.suite);
      ("verilog", Test_verilog.suite);
      ("lower", Test_lower.suite);
      ("matrix", Test_matrix.suite);
      ("core", Test_core.suite);
      ("counters", Test_counters.suite);
      ("timing", Test_timing.suite);
      ("power", Test_power.suite);
      ("sim", Test_sim.suite);
      ("adders", Test_adders.suite);
      ("baselines", Test_baselines.suite);
      ("flow", Test_flow.suite);
      ("signed", Test_signed.suite);
      ("booth", Test_booth.suite);
      ("multi", Test_multi.suite);
      ("event_sim", Test_event_sim.suite);
      ("exhaustive", Test_exhaustive.suite);
      ("pipeline", Test_pipeline.suite);
      ("misc", Test_misc.suite);
      ("verify", Test_verify.suite);
      ("fuzz", Test_fuzz.suite);
      ("properties", Test_props.suite);
      ("perf", Test_perf.suite);
      ("properties2", Test_props2.suite);
      ("cache", Test_cache.suite);
      ("gov", Test_gov.suite);
      ("server", Test_server.suite);
      ("journal", Test_journal.suite);
    ]
