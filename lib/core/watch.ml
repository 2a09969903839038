type t = {
  sys : System.t;
  agreement : Oracle.Agreement.t;
  finality : Oracle.Slot_finality.t;
  epochs : Oracle.Epoch_check.t;
}

let create sys =
  let t =
    {
      sys;
      agreement = Oracle.Agreement.create ();
      finality = Oracle.Slot_finality.create ();
      epochs = Oracle.Epoch_check.create ();
    }
  in
  System.on_slot_applied sys (fun ~replica ~epoch ~seq ~digest ->
      if System.correct sys replica then
        Oracle.Slot_finality.observe t.finality ~epoch ~replica ~seq ~digest);
  System.on_epoch_change sys (fun e ->
      match Member.Directory.cert_of_epoch (System.directory sys) e with
      | Some c ->
        Oracle.Epoch_check.observe_cutover t.epochs ~epoch:e
          ~boundary_exec:(Member.Cert.boundary_exec c)
          ~digest:(Member.Cert.digest c)
      | None -> ());
  t

let sample t =
  System.observe_agreement t.sys t.agreement;
  let dir = System.directory t.sys in
  Oracle.Epoch_check.observe_activity t.epochs
    ~time_us:(Sim.Engine.now (System.engine t.sys))
    ~live:(System.epoch_activity t.sys)
    ~quorum_of:(fun e ->
      match Member.Directory.cert_of_epoch dir e with
      | Some c -> Member.Cert.quorum_size c
      | None -> max_int)

let agreement t =
  Oracle.Verdict.combine
    [
      Oracle.Slot_finality.verdict t.finality;
      Oracle.Agreement.verdict t.agreement;
    ]

let epoch t =
  Option.iter (Oracle.Epoch_check.note_violation t.epochs)
    (System.epoch_violation t.sys);
  Oracle.Epoch_check.verdict t.epochs

let epoch_observations t = Oracle.Epoch_check.observations t.epochs
