let () =
  Alcotest.run "tpc"
    [
      ("engine", Test_engine.suite);
      ("kernel-diff", Test_kernel_diff.suite);
      ("types-msg", Test_types_msg.suite);
      ("signing", Test_signing.suite);
      ("rng", Test_rng.suite);
      ("wal", Test_wal.suite);
      ("netsim", Test_netsim.suite);
      ("lockmgr", Test_lockmgr.suite);
      ("kvstore", Test_kvstore.suite);
      ("id-keyed", Test_idkeyed.suite);
      ("cost-model", Test_cost_model.suite);
      ("trace", Test_trace.suite);
      ("protocol", Test_protocol.suite);
      ("conformance", Test_conformance.suite);
      ("optimizations", Test_optimizations.suite);
      ("failures", Test_failures.suite);
      ("heuristics", Test_heuristics.suite);
      ("crash-matrix", Test_crash_matrix.suite);
      ("sequences", Test_sequences.suite);
      ("lossy", Test_lossy.suite);
      ("retransmit", Test_retransmit.suite);
      ("chaos", Test_chaos.suite);
      ("scenarios", Test_scenarios.suite);
      ("contention", Test_contention.suite);
      ("stream", Test_stream.suite);
      ("properties", Test_properties.suite);
      ("opts-api", Test_opts_api.suite);
      ("mixer", Test_mixer.suite);
      ("obs", Test_obs.suite);
      ("causal", Test_causal.suite);
      ("telemetry", Test_telemetry.suite);
      ("parallel", Test_parallel.suite);
      ("driver", Test_driver.suite);
      ("hot-path", Test_hot_path.suite);
    ]
