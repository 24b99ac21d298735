(* The adversaries the baseline protocols (experiment E8) face: matched
   to each comparator's message type.  The protocols themselves run
   through [Engine.exec]. *)

open Vv_sim
module B = Vv_baselines

(* Adversary against the exchange-and-agree baselines: observe the honest
   Raw values in round 0 and flood the runner-up (same collusion the voting
   protocols face). *)
let raw_collude () : B.Exchange_ba.msg Adversary.t =
  Adversary.named "raw-collude" (fun view ->
      if view.Adversary.round <> 0 then []
      else
        let seen = Hashtbl.create 16 in
        for i = 0 to view.Adversary.sent_len - 1 do
          match view.Adversary.sent_msg i with
          | B.Exchange_ba.Raw v ->
              let src = view.Adversary.sent_src i in
              if not (Hashtbl.mem seen src) then Hashtbl.add seen src v
          | B.Exchange_ba.Ba _ -> ()
        done;
        let counts = Hashtbl.create 8 in
        Hashtbl.iter
          (fun _ v ->
            let c = try Hashtbl.find counts v with Not_found -> 0 in
            Hashtbl.replace counts v (c + 1))
          seen;
        let ranked =
          Hashtbl.fold (fun v c acc -> (c, v) :: acc) counts []
          |> List.sort (fun (c1, v1) (c2, v2) ->
                 if c1 <> c2 then compare c2 c1 else compare v1 v2)
        in
        match ranked with
        | [] -> []
        | [ (_, only) ] ->
            List.concat_map
              (fun src ->
                List.init view.Adversary.n (fun dst ->
                    { Adversary.src; dst; msg = B.Exchange_ba.Raw only }))
              view.Adversary.byzantine
        | _ :: (_, second) :: _ ->
            List.concat_map
              (fun src ->
                List.init view.Adversary.n (fun dst ->
                    { Adversary.src; dst; msg = B.Exchange_ba.Raw second }))
              view.Adversary.byzantine)

(* Adversary against approximate agreement: flood an extreme outlier every
   round (the sensor-failure scenario of [5]). *)
let approx_outlier ~value : float Adversary.t =
  Adversary.named "approx-outlier" (fun view ->
      List.concat_map
        (fun src ->
          List.init view.Adversary.n (fun dst ->
              { Adversary.src; dst; msg = value }))
        view.Adversary.byzantine)
