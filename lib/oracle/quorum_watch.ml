type t = {
  quorum : Bft.Quorum.t;
  mutable verdict : Verdict.t;
  mutable observations : int;
  mutable min_available : int;
}

let create ~quorum =
  {
    quorum;
    verdict = Verdict.pass;
    observations = 0;
    min_available = max_int;
  }

let observe t ~time_us ~available =
  t.observations <- t.observations + 1;
  if available < t.min_available then t.min_available <- available;
  let need = Bft.Quorum.quorum_size t.quorum in
  if Verdict.is_pass t.verdict && available < need then
    t.verdict <-
      Verdict.failf
        "quorum lost at t=%dus: %d correct connected replicas available, \
         ordering quorum needs %d (n=%d f=%d k=%d)"
        time_us available need t.quorum.Bft.Quorum.n t.quorum.Bft.Quorum.f
        t.quorum.Bft.Quorum.k

let verdict t = t.verdict
let min_available t = if t.observations = 0 then 0 else t.min_available
