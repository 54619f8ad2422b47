let () =
  Alcotest.run "tquad"
    (Test_util.suites @ Test_vm.suites @ Test_dbi.suites @ Test_minic.suites @ Test_profilers.suites @ Test_wav_dsp.suites @ Test_wfs.suites @ Test_asm_parse.suites @ Test_cluster.suites @ Test_opt.suites @ Test_prof_extra.suites @ Test_minic_edge.suites @ Test_cache_sim.suites @ Test_wcet.suites @ Test_ast_print.suites @ Test_report.suites @ Test_apps.suites @ Test_objfile.suites @ Test_structs.suites @ Test_footprint.suites @ Test_isa.suites @ Test_fuzz.suites @ Test_trace.suites @ Test_columns.suites @ Test_fault.suites @ Test_staticcheck.suites @ Test_dataflow.suites @ Test_differential.suites @ Test_obs.suites @ Test_serve.suites @ Test_chaos.suites
    @ Test_compress.suites @ Test_guest_faults.suites @ Test_live.suites)
