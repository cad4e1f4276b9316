let () =
  Alcotest.run "spitz"
    [
      ("crypto", Test_crypto.suite);
      ("kernels", Test_kernels.suite);
      ("storage", Test_storage.suite);
      ("durability", Test_durability.suite);
      ("merkle", Test_merkle.suite);
      ("adt", Test_adt.suite);
      ("index", Test_index.suite);
      ("ledger", Test_ledger.suite);
      ("core", Test_spitz_core.suite);
      ("systems", Test_systems.suite);
      ("query", Test_query.suite);
      ("control", Test_control.suite);
      ("check", Test_check.suite);
      ("server", Test_server.suite);
      ("transport", Test_transport.suite);
      ("retention", Test_retention.suite);
    ]
