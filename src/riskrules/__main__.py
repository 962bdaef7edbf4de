from riskrules.cli import main

raise SystemExit(main())
