(* Members of the two random populations that fail today, from
   [survey.exe] (survey.ml).  The submit workloads skip them: an
   operation that fails on some seeds only would make the failed share
   of a run depend on the seed.  The deadlock stays measured through
   the two fixed members of [deadlocking], which every submit-cold
   round sends.

   Parked family, 10,000 members: 183 raise "Scheduler.run: precedence
   cycle (no ready job)" and 8 return a plan that fails [Validate]
   (a wash crosses a held storage cell).  Storage-free family, 20,000
   members: 0 fail. *)

let failing_parked : int array =
  [|
    71; 107; 131; 164; 174; 209; 282; 295; 313; 338; 362; 385; 389; 390;
    434; 540; 619; 685; 752; 763; 804; 903; 978; 1090; 1101; 1282; 1378;
    1384; 1407; 1422; 1447; 1474; 1495; 1499; 1527; 1564; 1623; 1657; 1672;
    1816; 1861; 1930; 1971; 2044; 2108; 2157; 2165; 2166; 2169; 2314; 2317;
    2358; 2421; 2525; 2566; 2571; 2595; 2608; 2742; 2810; 2814; 2826; 2863;
    2879; 2952; 2955; 2969; 2991; 3045; 3050; 3141; 3175; 3205; 3249; 3534;
    3537; 3570; 3596; 3619; 3693; 3722; 3874; 3876; 4007; 4029; 4075; 4168;
    4181; 4208; 4224; 4245; 4253; 4273; 4297; 4362; 4400; 4485; 4553; 4573;
    4667; 4736; 4752; 4815; 4847; 4894; 4987; 5107; 5253; 5260; 5265; 5367;
    5406; 5417; 5471; 5501; 5522; 5546; 5643; 5668; 5670; 5785; 5793; 5957;
    5960; 6066; 6119; 6171; 6211; 6216; 6293; 6343; 6349; 6387; 6393; 6447;
    6529; 6530; 6585; 6774; 6801; 6890; 6901; 6943; 6960; 7088; 7128; 7133;
    7153; 7155; 7212; 7250; 7283; 7377; 7379; 7411; 7457; 7619; 7713; 7740;
    7883; 7891; 7906; 7960; 7993; 8165; 8177; 8238; 8487; 8493; 8512; 8634;
    8640; 8713; 8786; 8914; 8921; 8979; 8991; 9070; 9270; 9363; 9531; 9543;
    9598; 9602; 9622; 9701; 9805; 9865; 9874; 9892;
  |]

let failing_storage_free : int array = [||]

(* Two parked members that deadlock, independent of the seed. *)
let deadlocking = [| 71; 107 |]
